//! Fault injection: a truncated on-disk region index must surface as a
//! typed [`QueryError::Stream`] from every indexed driver, never as a
//! silently truncated result set.
//!
//! The scenario mirrors a partially written or corrupted index file:
//! the table of contents is intact, so the index opens and streams
//! start delivering elements, but the final records of a segment are
//! chopped mid-record. Before the fallible drivers existed, both
//! engines would drain such a stream to its (early) end and report
//! whatever matches happened to be complete — indistinguishable from a
//! correct empty tail.

use gtpquery::{parse_twig, CancelToken, NodeTest, QueryError};
use twig2stack::MatchOptions;
use twigbaselines::{try_twig_stack_with, TwigStackStats};
use twigserve::{QueryService, ServeError, ServiceConfig};
use xmldom::{parse, Document, EditError, EditOp, Label};
use xmlindex::{
    write_mapped_index, write_region_index, DiskRegionIndex, DiskRegionStream, MappedIndex,
    MappedOpenError, PruningPolicy, SectionId,
};

/// A document whose `b` segment is large enough that chopping the file
/// tail lands mid-record inside it (`b` is interned after `a`, so its
/// segment is written last).
fn sample_doc() -> Document {
    let body = "<b/>".repeat(40);
    parse(&format!("<a>{body}</a>")).unwrap()
}

/// Write the region index for `doc`, then chop `chop` bytes off the end
/// of the file — TOC intact, final records gone.
fn truncated_index(doc: &Document, name: &str, chop: u64) -> (DiskRegionIndex, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("t2s-fault-{}-{name}", std::process::id()));
    write_region_index(doc, &path).unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - chop).unwrap();
    drop(f);
    (DiskRegionIndex::open(&path).unwrap(), path)
}

/// One disk stream per query node, in query-node order.
fn query_streams(
    doc: &Document,
    disk: &DiskRegionIndex,
    gtp: &gtpquery::Gtp,
) -> Vec<(Label, DiskRegionStream)> {
    gtp.iter()
        .map(|q| match gtp.test(q) {
            NodeTest::Name(n) => (
                doc.labels().get(n).expect("label present in document"),
                disk.stream(n).expect("label present in index"),
            ),
            NodeTest::Wildcard => unreachable!("test queries use named tests"),
        })
        .collect()
}

#[test]
fn twigstack_reports_truncated_disk_stream() {
    let doc = sample_doc();
    let gtp = parse_twig("//a/b").unwrap();
    let (disk, path) = truncated_index(&doc, "twigstack", 30);

    let streams = query_streams(&doc, &disk, &gtp)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let mut stats = TwigStackStats::default();
    let err = match try_twig_stack_with(&gtp, streams, PruningPolicy::Disabled, &mut stats) {
        Ok(rs) => panic!(
            "truncated index must not produce a result set ({} rows)",
            rs.len()
        ),
        Err(e) => e,
    };
    match err {
        QueryError::Stream(e) => {
            assert!(e.context.contains("'b'"), "context names the segment: {e}");
            assert_eq!(e.source.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        other => panic!("expected QueryError::Stream, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn twig2stack_reports_truncated_disk_stream() {
    let doc = sample_doc();
    let gtp = parse_twig("//a[b]").unwrap();
    let (disk, path) = truncated_index(&doc, "twig2stack", 30);

    let streams = query_streams(&doc, &disk, &gtp);
    let err = match twig2stack::try_match_streams(
        &doc,
        &gtp,
        streams,
        MatchOptions::default(),
        &CancelToken::never(),
    ) {
        Ok((rs, _)) => panic!(
            "truncated index must not produce a result set ({} rows)",
            rs.len()
        ),
        Err(e) => e,
    };
    match err {
        QueryError::Stream(e) => {
            assert!(e.context.contains("'b'"), "context names the segment: {e}");
            assert_eq!(e.source.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        other => panic!("expected QueryError::Stream, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Flip one byte in the middle of every v3 section in turn: each flip
/// must surface at open as a typed [`MappedOpenError::ChecksumMismatch`]
/// naming exactly the corrupted section — a mapped index never serves a
/// silently wrong byte.
#[test]
fn mapped_index_byte_flip_names_the_corrupt_section() {
    let doc = sample_doc();
    let path = std::env::temp_dir().join(format!("t2s-fault-v3-{}", std::process::id()));
    write_mapped_index(&doc, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    // Recover each section's byte range from the TOC (header 24 bytes,
    // then 32-byte entries: id u32, reserved u32, offset u64, len u64,
    // checksum u64).
    let section_count = u32::from_le_bytes(pristine[12..16].try_into().unwrap()) as usize;
    assert_eq!(section_count, SectionId::ALL.len());
    let mut flipped_sections = 0;
    for i in 0..section_count {
        let at = 24 + i * 32;
        let raw_id = u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
        let offset =
            u64::from_le_bytes(pristine[at + 8..at + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(pristine[at + 16..at + 24].try_into().unwrap()) as usize;
        if len == 0 {
            continue; // nothing to corrupt (a checksum of zero bytes)
        }
        let mut corrupt = pristine.clone();
        corrupt[offset + len / 2] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        match MappedIndex::open(&path) {
            Err(MappedOpenError::ChecksumMismatch { section }) => {
                assert_eq!(
                    section as u32, raw_id,
                    "error must name the flipped section, not another"
                );
            }
            other => panic!(
                "flip in section id {raw_id} must fail its checksum, got {other:?}"
            ),
        }
        flipped_sections += 1;
    }
    assert!(flipped_sections >= 6, "most sections are non-empty and were exercised");
    // The pristine bytes still open cleanly — the failures above came
    // from the injected flips alone.
    std::fs::write(&path, &pristine).unwrap();
    MappedIndex::open(&path).expect("pristine file verifies");
    std::fs::remove_file(&path).ok();
}

/// Editing a mapped (v3, read-only) service under an injected disk
/// fault: the first edit materializes a heap snapshot, after which the
/// backing file is dead weight — corrupting or deleting it must not
/// perturb the edited service, and a rejected edit must surface as a
/// typed [`ServeError::Edit`] with the mapped snapshot still serving.
#[test]
fn edited_mapped_service_survives_backing_file_corruption() {
    let doc = sample_doc();
    let path = std::env::temp_dir().join(format!("t2s-fault-map-edit-{}", std::process::id()));
    write_mapped_index(&doc, &path).unwrap();
    let svc = QueryService::open_mapped(doc, &path, ServiceConfig::default()).unwrap();
    let gtp = parse_twig("//a/b").unwrap();
    assert_eq!(svc.execute("//a/b").unwrap().len(), 40, "mapped baseline");

    // A rejected edit is a typed error, not a panic, and changes
    // nothing: the snapshot still serves from the map.
    let bogus = EditOp::DeleteSubtree { target: xmldom::NodeId::from_index(999) };
    match svc.apply_edit(&bogus) {
        Err(ServeError::Edit(EditError::InvalidNode(_))) => {}
        other => panic!("expected ServeError::Edit(InvalidNode), got {other:?}"),
    }
    let snap = svc.snapshot();
    assert_eq!(snap.version(), 0, "rejected edit must not rotate");
    assert!(snap.index().as_mapped().is_some(), "snapshot still mapped");

    // A real edit on the read-only backend rebuilds to the heap.
    let root = snap.doc().root();
    let receipt = svc
        .apply_edit(&EditOp::InsertSubtree {
            parent: Some(root),
            position: 0,
            subtree: parse("<b/>").unwrap(),
        })
        .unwrap();
    assert_eq!(receipt.version, 1);
    let snap = svc.snapshot();
    assert!(snap.index().as_mapped().is_none(), "post-edit snapshot is heap-backed");
    drop(snap);

    // Kill the backing file outright: the heap snapshot owes it nothing.
    std::fs::write(&path, b"garbage").unwrap();
    let rows = svc.execute("//a/b").unwrap();
    assert_eq!(rows.len(), 41, "heap snapshot serves the edited document");
    let snap = svc.snapshot();
    assert_eq!(rows, twig2stack::evaluate(snap.doc(), &gtp));

    // Further edits keep rebuilding the heap lineage with the file gone.
    std::fs::remove_file(&path).unwrap();
    let receipt = svc
        .apply_edit(&EditOp::DeleteSubtree {
            target: snap.doc().children(snap.doc().root()).next().unwrap(),
        })
        .unwrap();
    assert_eq!(receipt.version, 2);
    assert_eq!(svc.execute("//a/b").unwrap().len(), 40);

    // And the corrupted bytes themselves can only fail typed at open.
    std::fs::write(&path, b"garbage").unwrap();
    assert!(MappedIndex::open(&path).is_err(), "corrupt file must not open");
    std::fs::remove_file(&path).ok();
}

/// The same pipelines over an intact index still succeed — the fault
/// paths above fail because of the injected truncation, not because
/// disk streams are unusable.
#[test]
fn intact_index_still_evaluates_cleanly() {
    let doc = sample_doc();
    let gtp = parse_twig("//a/b").unwrap();
    let path = std::env::temp_dir().join(format!("t2s-fault-intact-{}", std::process::id()));
    write_region_index(&doc, &path).unwrap();
    let disk = DiskRegionIndex::open(&path).unwrap();

    let streams = query_streams(&doc, &disk, &gtp)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let mut stats = TwigStackStats::default();
    let via_twigstack = try_twig_stack_with(&gtp, streams, PruningPolicy::Disabled, &mut stats)
        .expect("intact index evaluates");
    assert_eq!(via_twigstack.len(), 40, "one row per (a, b) pair");

    let streams = query_streams(&doc, &disk, &gtp);
    let (via_t2s, _) = twig2stack::try_match_streams(
        &doc,
        &gtp,
        streams,
        MatchOptions::default(),
        &CancelToken::never(),
    )
    .expect("intact index evaluates");
    assert_eq!(via_t2s.sorted(), via_twigstack.sorted());
    std::fs::remove_file(&path).ok();
}
