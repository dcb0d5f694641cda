//! Metric values, summary statistics, and the JSON lines the benchmark
//! prints.

use std::fmt::Write as _;

/// One reported metric: a name from `metrics::END_TO_END` or
/// `metrics::PER_LAYER`, its value, and the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one invocation measured, before printing.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: measured runner calls or service jobs.
    pub attempted: u64,
    /// Operations that failed (see `check`).
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    /// Figures behind the metrics (raw times, the reference kernel),
    /// printed on the provenance line.
    pub context: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, value, samples });
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(out: &Outcome, units: impl Fn(&str) -> &'static str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(units(m.name))
        );
    }
    s.push_str("}}");
    s
}

/// Where the numbers came from, and how many samples stand behind each
/// metric.  Printed before the result line so results from different
/// hosts are never compared unknowingly.
pub fn provenance_line(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"host_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"samples\": {{",
        json_str(workload),
        u8::from(trace),
        manet::host_parallelism(),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}: {}", json_str(m.name), m.samples);
    }
    s.push_str("}, \"context\": {");
    for (i, (name, v)) in out.context.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}: {}", json_str(name), json_num(*v));
    }
    s.push_str("}}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("wall_s", 1.5, 3);
        let line = result_line(&o, |_| "s");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
