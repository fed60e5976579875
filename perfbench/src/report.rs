//! The metric catalogue and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units. Must match the
/// `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_share", "ratio"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. Must match the
/// `per_layer` list of `BENCHMARK.json`. A layer a workload does not run
/// reads 0. The coverage and signature counts lead the list: they repeat
/// exactly per seed but vary from seed to seed by more than any bound
/// allows, so they are carried here rather than among the end-to-end
/// metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cond_points", "count"),
    ("line_points", "count"),
    ("fsm_points", "count"),
    ("signatures", "count"),
    ("generator.us_per_case", "us"),
    ("generator.share", "ratio"),
    ("learner.us_per_case", "us"),
    ("learner.share", "ratio"),
    ("covpred.us_per_call", "us"),
    ("ppo.us_per_call", "us"),
    ("critic.us_per_call", "us"),
    ("learner.accounted_share", "ratio"),
    ("exec.us_per_case", "us"),
    ("exec.share", "ratio"),
    ("exec.occupancy", "ratio"),
    ("predecode.us_per_case", "us"),
    ("predecode.hit_rate", "ratio"),
    ("dut.us_per_case", "us"),
    ("dut.steps_per_s", "1/s"),
    ("grm.us_per_case", "us"),
    ("grm.steps_per_s", "1/s"),
    ("grm_legacy.steps_per_s", "1/s"),
    ("mhart.us_per_case", "us"),
    ("mhart.sched_steps_per_s", "1/s"),
    ("difftest.us_per_case", "us"),
    ("difftest.mismatches_per_case", "count"),
    ("campaign.self_us_per_case", "us"),
    ("unaccounted.wall_share", "ratio"),
    ("unaccounted.exec_share", "ratio"),
    ("fleet.members_ms_p50", "ms"),
    ("fleet.close_ms_p50", "ms"),
    ("fleet.sync_s", "s"),
    ("fleet.distill_s", "s"),
    ("fleet.schedule_s", "s"),
    ("fleet.corpus_entries", "count"),
    ("traffic.body_len_mean", "count"),
    ("traffic.dut_steps_per_case", "count"),
    ("traffic.mhart_share", "ratio"),
    ("host.slowdown", "ratio"),
    ("host.raw_cases_per_s", "1/s"),
    ("host.steal_share", "ratio"),
    ("trace.untraced_cases_per_s", "1/s"),
    ("trace.traced_cases_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("epoch.samples", "count"),
];

/// Operations checked, failures, and measured values by metric name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Prints one line per metric, then the JSON result line. An
    /// end-to-end metric that was never measured is a failure.
    pub fn print(mut self, trace: bool) {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => {
                    self.attempted += 1;
                    self.failures.push(format!("{name} was not measured"));
                    0.0
                }
            };
            println!("{name:<30} {value:>18.4} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for failure in &self.failures {
            eprintln!("check failed: {failure}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            fields.join(", ")
        );
    }
}
