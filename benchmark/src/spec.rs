//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository root
//! is printed from these tables (`--emit-spec`) and a test holds the two
//! equal, so a metric cannot be printed under a name the file lacks.

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 16;

/// The driver's command; it appends `--workload`, `--seed`, `--seconds`
/// and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "score-hybrid",
        why: "paper-shape student, 98.7%-sparse first layer, scored directly: sparse, dense, simd and nn do all the work, quickscorer and serve none",
    },
    WorkloadSpec {
        name: "score-forest",
        why: "vectorized QuickScorer over a LambdaMART forest, scored directly: quickscorer and simd::qs do all the work; the bypass workload for kernel work on the net",
    },
    WorkloadSpec {
        name: "serve-rerank",
        why: "Server over RobustScorer at 64-document requests, open loop at 700/s then closed loop: the production read path, where kernel time dominates the serving stack",
    },
    WorkloadSpec {
        name: "serve-swap",
        why: "Server over the model registry at 4-document requests, 4000/s with a rollout every 8000: queue, batcher, dispatcher, registry lock and shadow scoring are the cost",
    },
    WorkloadSpec {
        name: "train-distill",
        why: "teacher training, distillation, first-layer prune and fine-tune at fixed sizes: gbdt, distill, nn::train, prune and metrics, which the other four barely run",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "us_per_doc",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "capacity_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "train_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ndcg10_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate or module name. A workload that does not run a layer
/// reports 0 for it.
pub const PER_LAYER: [PerLayer; 88] = [
    layer("data.synth_s", "s", "lower"),
    layer("data.normalize_us", "us", "lower"),
    layer("simd.gemm_tile_ns.scalar", "ns", "lower"),
    layer("simd.gemm_tile_ns.sse2", "ns", "lower"),
    layer("simd.gemm_tile_ns.avx2", "ns", "lower"),
    layer("simd.sdmm_row_ns.scalar", "ns", "lower"),
    layer("simd.sdmm_row_ns.sse2", "ns", "lower"),
    layer("simd.sdmm_row_ns.avx2", "ns", "lower"),
    layer("simd.qs_mask_ns.scalar", "ns", "lower"),
    layer("simd.qs_mask_ns.sse2", "ns", "lower"),
    layer("simd.qs_mask_ns.avx2", "ns", "lower"),
    layer("sparse.sdmm_us", "us", "lower"),
    layer("sparse.sdmm_naive_us", "us", "lower"),
    layer("sparse.pack_b_us", "us", "lower"),
    layer("sparse.nnz", "count", "lower"),
    layer("sparse.active_rows", "count", "lower"),
    layer("sparse.active_cols", "count", "lower"),
    layer("dense.gemm_l2_us", "us", "lower"),
    layer("dense.gemm_l3_us", "us", "lower"),
    layer("dense.gemm_l4_us", "us", "lower"),
    layer("dense.gemm_l5_us", "us", "lower"),
    layer("dense.gemm_l2_gflops", "GFLOP/s", "higher"),
    layer("dense.pack_a_us", "us", "lower"),
    layer("nn.hybrid_forward_us", "us", "lower"),
    layer("nn.dense_forward_us", "us", "lower"),
    layer("nn.hybrid_us_per_doc_b1", "us", "lower"),
    layer("nn.hybrid_us_per_doc_b16", "us", "lower"),
    layer("nn.hybrid_us_per_doc_b256", "us", "lower"),
    layer("nn.hybrid_us_per_doc_b1000", "us", "lower"),
    layer("nn.layer_sum_ratio", "ratio", "higher"),
    layer("nn.train_step_us", "us", "lower"),
    layer("nn.read_mlp_us", "us", "lower"),
    layer("quickscorer.naive_us_per_doc", "us", "lower"),
    layer("quickscorer.qs_us_per_doc", "us", "lower"),
    layer("quickscorer.bwqs_us_per_doc", "us", "lower"),
    layer("quickscorer.vqs_us_per_doc", "us", "lower"),
    layer("quickscorer.vqs_us_per_doc.scalar", "us", "lower"),
    layer("quickscorer.vqs_us_per_doc.avx2", "us", "lower"),
    layer("quickscorer.compile_ms", "ms", "lower"),
    layer("core.scoring.wrapper_us", "us", "lower"),
    layer("core.pool.dispatch_us", "us", "lower"),
    layer("core.parallel.gemm_speedup_t2", "ratio", "higher"),
    layer("core.parallel.spmm_speedup_t2", "ratio", "higher"),
    layer("core.parallel.bwqs_speedup_t2", "ratio", "higher"),
    layer("core.serve.robust_overhead_us", "us", "lower"),
    layer("core.serve.degraded", "count", "lower"),
    layer("core.serve.rescued", "count", "lower"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.stack_us", "us", "lower"),
    layer("serve.queue_wait_mean_us", "us", "lower"),
    layer("serve.execute_mean_us", "us", "lower"),
    layer("serve.batch_docs_mean", "count", "higher"),
    layer("serve.batch_reqs_mean", "count", "higher"),
    layer("serve.max_queue_depth", "count", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.rejected_full", "count", "lower"),
    layer("serve.expired", "count", "lower"),
    layer("serve.failed", "count", "lower"),
    layer("serve.scored_fallback", "count", "lower"),
    layer("serve.latency_p99_us", "us", "lower"),
    layer("serve.gen_late_p99_us", "us", "lower"),
    layer("serve.clock_check_us", "us", "lower"),
    layer("serve.registry.load_us", "us", "lower"),
    layer("serve.registry.promote_us", "us", "lower"),
    layer("serve.registry.rollouts", "count", "higher"),
    layer("serve.registry.shadow_batches", "count", "lower"),
    layer("serve.registry.rollout_p99_us", "us", "lower"),
    layer("serve.registry.steady_p99_us", "us", "lower"),
    layer("obs.overhead_pct", "%", "lower"),
    layer("obs.scope_ns", "ns", "lower"),
    layer("obs.spans_opened", "count", "lower"),
    layer("obs.spans_dropped", "count", "lower"),
    layer("obs.drift_ratio", "ratio", "lower"),
    layer("predictor.calibrate_s", "s", "lower"),
    layer("predictor.dense_ratio", "ratio", "lower"),
    layer("predictor.sparse_ratio", "ratio", "lower"),
    layer("predictor.forecast_ratio", "ratio", "lower"),
    layer("gbdt.train_s", "s", "lower"),
    layer("gbdt.predict_us_per_doc", "us", "lower"),
    layer("distill.session_new_s", "s", "lower"),
    layer("distill.epoch_s", "s", "lower"),
    layer("distill.epochs", "count", "lower"),
    layer("prune.prune_s", "s", "lower"),
    layer("prune.sparsity", "ratio", "higher"),
    layer("prune.student_us_per_doc", "us", "lower"),
    layer("metrics.eval_s", "s", "lower"),
    layer("metrics.teacher_ndcg10", "ratio", "higher"),
    layer("metrics.student_ndcg10", "ratio", "higher"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("{name} is not a metric of BENCHMARK.json"))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [");
    s += &COMMAND
        .iter()
        .map(|c| format!("\"{c}\""))
        .collect::<Vec<_>>()
        .join(", ");
    s += "],\n  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    s += &WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_what_the_tables_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, benchmark_json(), "regenerate it with --emit-spec");
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && COMMAND.len() <= 32);
    }
}
