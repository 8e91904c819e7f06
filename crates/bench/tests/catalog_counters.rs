//! Catalog scatter jobs run on pool threads; their engine counters must
//! still land on the thread that asked (obs is compiled in under
//! twigbench's default `obs` feature, so the counters are live here).

use twigobs::Counter;
use twigserve::{CatalogConfig, CatalogService};

#[test]
fn scattered_execute_leaves_the_serial_counters_on_the_caller() {
    let docs = (0..6)
        .map(|_| xmldom::parse("<a><b><c/></b><b/><d><b><c/></b></d></a>").unwrap())
        .collect();
    let cat = CatalogService::build_heap(
        docs,
        CatalogConfig {
            shards: 3,
            ..CatalogConfig::default()
        },
    );
    let q = "//a//b[c]";
    twigobs::take(); // isolate this thread's counters
    let serial = cat.execute_serial(q).unwrap();
    let serial_obs = twigobs::take();
    let scattered = cat.execute(q).unwrap();
    let scattered_obs = twigobs::take();
    assert_eq!(scattered, serial);
    for c in [Counter::ElementsScanned, Counter::StackPushes] {
        assert!(serial_obs.get(c) > 0, "{c:?}: the serial run did work");
        assert_eq!(scattered_obs.get(c), serial_obs.get(c), "{c:?}");
    }
}
