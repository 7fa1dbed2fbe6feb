//! Durable-store acceptance: a serving stack backed by the sharded WAL
//! engine must, after its shutdown seal + compaction, reopen to a
//! database whose JSON export is byte-identical to an in-memory stack
//! that served the same deterministic workload.

use nnlqp::Nnlqp;
use nnlqp_db::{open_read_only, persist, verify_store, DurableOptions};
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_serve::{LatencyService, ServeConfig};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::path::Path;
use std::sync::Arc;

const PLATFORM: &str = "gpu-T4-trt7.1-fp32";
const SEED: u64 = 4242;

fn system(durable: Option<&Path>) -> Arc<Nnlqp> {
    let mut b = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
        .reps(3)
        .seed(SEED);
    if let Some(dir) = durable {
        b = b.durable(DurableOptions::new(dir));
    }
    Arc::new(b.try_build().expect("open durable store"))
}

/// One worker, one client, sequential queries: the ingest order (and so
/// every assigned row id) is deterministic across runs.
fn serve_workload(sys: &Arc<Nnlqp>) {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 32,
        cache_capacity: 128,
        degrade_backlog: usize::MAX,
        ..Default::default()
    };
    let svc = LatencyService::start(Arc::clone(sys), cfg);
    let models: Vec<Arc<Graph>> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, SEED)
        .into_iter()
        .map(|m| Arc::new(m.graph))
        .collect();
    for (i, m) in models.iter().enumerate() {
        svc.query(m, PLATFORM, (i as u32 % 4) + 1)
            .expect("query succeeds");
    }
    // Re-querying hits the cache/db: no new rows, so the export below is
    // a function of the measured set alone.
    for m in &models {
        svc.query(m, PLATFORM, 1).expect("repeat query succeeds");
    }
    svc.shutdown().expect("shutdown seals the store");
}

#[test]
fn serve_ingest_survives_restart_byte_identically() {
    let dir = std::env::temp_dir().join(format!("nnlqp-durable-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ground truth: identical workload against a purely in-memory stack.
    let mem = system(None);
    serve_workload(&mem);
    let baseline = persist::export_json(&mem.db).to_string();

    let durable = system(Some(&dir));
    serve_workload(&durable);
    assert_eq!(
        persist::export_json(&durable.db).to_string(),
        baseline,
        "durable serving stack diverged from the in-memory twin"
    );
    assert!(
        durable.db.stats().latencies > 0,
        "workload ingested nothing"
    );
    drop(durable);

    // Shutdown compacted: the store verifies clean and reopens to the
    // same bytes, with everything in segments (no WAL tail to replay).
    let report = verify_store(&dir).expect("store is verifiable");
    assert!(report.clean(), "store not clean after shutdown: {report:?}");
    let (reopened, rec) = open_read_only(&dir).expect("store reopens");
    assert!(rec.clean());
    assert_eq!(rec.wal_frames_replayed, 0, "shutdown left a WAL tail");
    assert!(rec.seg_frames > 0);
    assert_eq!(persist::export_json(&reopened).to_string(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
