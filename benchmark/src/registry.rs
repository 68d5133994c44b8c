//! The names this benchmark reports: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is `spec_json()` verbatim (a unit test holds them equal), so
//! the contract file and the program cannot drift apart.

use upi_query::PathKind;

use crate::harness::Class;
use crate::json::quote;

/// Seconds one run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 10;

/// The five workloads and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ptq_cold",
        "table 20x the pool and go_cold before every query: sim disk, pool miss/read-ahead, B+Tree descent and cutoff pointer chase do the work (paper fig 4-6)",
    ),
    (
        "ptq_warm",
        "same table and mix on a hot set that fits the pool: pool hit path, plan(), entry decode and sinks dominate, the device does almost nothing",
    ),
    (
        "dml_lifecycle",
        "durable fractured table: insert/delete/update beside queries, maintenance ticks, checkpoint, kill, recover, verify - the write path next to the read path",
    ),
    (
        "shard_scatter",
        "two shards, one worker thread each: scatter, thread spawn, shared top-k watermark, shard pruning and gather-merge",
    ),
    (
        "circle_continuous",
        "Cartel circle and segment queries plus inserts on the continuous UPI: R-Tree descent and Gaussian probability integration (paper Q4/Q5)",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Each bound is at least three times the largest quartile spread any
/// workload showed over ten seeds on the 2-core reference box (README.md
/// has the table); `setup_s` gets the contract's maximum.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "host_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "host_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "device_ms_per_op",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "device_pages_read_per_op",
        unit: "pages",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "written_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric (no bound: it localises, it does not gate).
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Op classes that get their own `query.exec.<class>.*` rows.
pub const LEDGER_CLASSES: [Class; 7] = [
    Class::Point,
    Class::TopK,
    Class::Range,
    Class::Secondary,
    Class::Insert,
    Class::Delete,
    Class::Update,
];

/// Every per-layer metric, in reporting order. A layer the workload does
/// not exercise reports 0.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: &[(&str, &'static str, Better)] = &[
        ("storage.disk.page_reads_per_op", "pages", Lower),
        ("storage.disk.page_writes_per_op", "pages", Lower),
        ("storage.disk.seeks_per_op", "count", Lower),
        ("storage.disk.file_opens_per_op", "count", Lower),
        ("storage.disk.seek_ms_share", "ratio", Lower),
        ("storage.disk.read_ms_share", "ratio", Lower),
        ("storage.disk.write_ms_share", "ratio", Lower),
        ("storage.disk.init_ms_share", "ratio", Lower),
        ("storage.disk.host_ns_per_read_page", "ns", Lower),
        ("storage.pool.gets_per_op", "count", Lower),
        ("storage.pool.hit_ratio", "ratio", Higher),
        ("storage.pool.evictions_per_op", "count", Lower),
        ("storage.pool.readahead_pages_per_op", "pages", Lower),
        ("storage.pool.readahead_useful_ratio", "ratio", Higher),
        ("storage.pool.readahead_wasted", "count", Lower),
        ("storage.pool.hinted_runs", "count", Higher),
        ("storage.pool.flush_errors", "count", Lower),
        ("storage.pool.flush_retries", "count", Lower),
        ("storage.pool.host_ns_per_get_hit", "ns", Lower),
        ("storage.pool.host_ns_per_get_miss", "ns", Lower),
        ("storage.wal.records", "count", Lower),
        ("storage.wal.batches", "count", Lower),
        ("storage.wal.mean_batch", "count", Higher),
        ("storage.wal.retries", "count", Lower),
        ("storage.wal.host_ns_per_append", "ns", Lower),
        ("storage.wal.bytes_per_record", "bytes", Lower),
        ("storage.codec.host_ns_per_key_encode", "ns", Lower),
        ("btree.height", "count", Lower),
        ("btree.leaf_pages", "pages", Lower),
        ("btree.host_ns_per_get", "ns", Lower),
        ("btree.host_ns_per_cursor_step", "ns", Lower),
        ("btree.host_ns_per_insert", "ns", Lower),
        ("rtree.height", "count", Lower),
        ("rtree.leaf_pages", "pages", Lower),
        ("rtree.host_us_per_query_circle", "us", Lower),
        ("rtree.host_us_per_insert", "us", Lower),
        ("uncertain.host_ns_per_tuple_decode", "ns", Lower),
        ("uncertain.host_ns_per_tuple_encode", "ns", Lower),
        ("uncertain.host_ns_per_prob_in_circle", "ns", Lower),
        ("core.upi.decodes_per_row", "ratio", Lower),
        ("core.upi.pointer_fetches_per_row", "ratio", Lower),
        ("core.upi.suppressed_per_row", "ratio", Lower),
        ("core.fractured.components_mean", "count", Lower),
        ("core.fractured.components_max", "count", Lower),
        ("core.fractured.flushes", "count", Lower),
        ("core.fractured.host_ms_per_flush", "ms", Lower),
        ("core.fractured.device_ms_per_flush", "sim_ms", Lower),
        ("core.maintenance.ticks", "count", Lower),
        ("core.maintenance.steps", "count", Lower),
        ("core.maintenance.deferred_ticks", "count", Lower),
        ("core.maintenance.components_compacted", "count", Higher),
        ("core.maintenance.host_s", "s", Lower),
        ("core.maintenance.device_ms", "sim_ms", Lower),
        (
            "core.maintenance.bytes_rewritten_per_user_byte",
            "ratio",
            Lower,
        ),
        ("core.durability.checkpoint_host_s", "s", Lower),
        ("core.durability.checkpoint_device_ms", "sim_ms", Lower),
        ("core.durability.checkpoint_bytes", "bytes", Lower),
        ("core.durability.recover_host_s", "s", Lower),
        ("core.durability.recover_device_ms", "sim_ms", Lower),
        ("core.durability.records_replayed", "count", Lower),
        ("core.durability.log_truncated", "count", Lower),
        ("core.durability.acked_rows_lost", "count", Lower),
        ("core.continuous.host_us_per_circle", "us", Lower),
        ("core.continuous.host_us_per_segment_ptq", "us", Lower),
        ("core.continuous.host_us_per_insert", "us", Lower),
        ("core.continuous.pages_read_per_circle", "pages", Lower),
        ("query.planner.host_us_per_plan", "us", Lower),
        ("query.planner.plan_share_of_host", "ratio", Lower),
        ("query.planner.candidates_per_plan", "count", Lower),
        ("query.planner.misest_p50", "ratio", Lower),
        ("query.planner.misest_p95", "ratio", Lower),
        ("query.exec.host_us_per_execute", "us", Lower),
        ("query.exec.host_ns_per_row", "ns", Lower),
        ("query.exec.rows_per_op", "rows", Lower),
        ("query.exec.decodes_per_row_returned", "ratio", Lower),
        ("query.exec.device_ms_p99", "sim_ms", Lower),
        ("query.sharded.host_us_per_scatter", "us", Lower),
        ("query.sharded.host_vs_unsharded", "ratio", Lower),
        ("query.sharded.shards_skipped_share", "ratio", Higher),
        ("query.sharded.latency_vs_sum", "ratio", Lower),
        ("workloads.generate_s", "s", Lower),
        ("trace.overhead_share", "ratio", Lower),
        ("trace.spans", "count", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for kind in PathKind::ALL {
        out.push(PerLayer {
            name: kind_share_name(kind),
            unit: "ratio",
            better: Higher,
        });
    }
    for class in LEDGER_CLASSES {
        out.push(PerLayer {
            name: class_metric(class, "host_us_p50"),
            unit: "us",
            better: Lower,
        });
        out.push(PerLayer {
            name: class_metric(class, "device_ms_mean"),
            unit: "sim_ms",
            better: Lower,
        });
    }
    out
}

/// `query.planner.chosen_kind_share.<kind>`.
pub fn kind_share_name(kind: PathKind) -> String {
    format!("query.planner.chosen_kind_share.{}", kind.label())
}

/// `query.exec.<class>.<what>`.
pub fn class_metric(class: Class, what: &str) -> String {
    format!("query.exec.{}.{what}", class.name())
}

/// The contract file, exactly as committed at the repo root.
pub fn spec_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            quote(name),
            quote(why),
            comma(i, WORKLOADS.len())
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound,
            comma(i, END_TO_END.len())
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            quote(&m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            comma(i, layers.len())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    fn committed() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn committed_contract_is_the_registry() {
        assert_eq!(
            committed(),
            spec_json(),
            "regenerate with `cargo run --release -- spec > ../BENCHMARK.json`"
        );
    }

    #[test]
    fn every_name_and_unit_in_the_contract_is_well_formed_and_unique() {
        let doc = json::parse(&committed()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut seen = BTreeSet::new();
        let mut check = |section: &str, with_unit: bool| -> usize {
            let items = doc.get(section).unwrap().as_array().unwrap();
            for item in items {
                let name = item.get("name").unwrap().as_str().unwrap();
                assert!(valid_name(name), "bad name {name:?}");
                assert!(seen.insert(name.to_string()), "duplicate name {name}");
                if with_unit {
                    let unit = item.get("unit").unwrap().as_str().unwrap();
                    assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
                    let better = item.get("better").unwrap().as_str().unwrap();
                    assert!(matches!(better, "lower" | "higher"));
                } else {
                    let why = item.get("why").unwrap().as_str().unwrap();
                    assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
                }
            }
            items.len()
        };
        assert_eq!(check("workloads", false), 5);
        let e2e = check("end_to_end", true);
        assert!((1..=16).contains(&e2e));
        let layers = check("per_layer", true);
        assert!((1..=128).contains(&layers), "{layers} per-layer metrics");
        for m in doc.get("end_to_end").unwrap().as_array().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = doc.get("end_to_end").unwrap().as_array().unwrap()[0].clone();
        assert_eq!(setup.get("name"), Some(&Value::Str("setup_s".into())));
        assert_eq!(setup.get("unit"), Some(&Value::Str("s".into())));
        assert_eq!(setup.get("better"), Some(&Value::Str("lower".into())));
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert!(committed().len() <= 64 * 1024);
    }
}
