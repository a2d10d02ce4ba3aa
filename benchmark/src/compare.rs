//! `bench_all --compare A.json B.json`: B against A, workload by workload.

use fsc_ir::json::Json;

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn number(file: &Json, workload: &str, section: &str, metric: &str, field: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get(field)?
        .as_f64()
}

fn failed_share(file: &Json, workload: &str) -> Option<f64> {
    let w = file.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?)
}

/// Print every workload x end-to-end metric with both medians, how much
/// worse B is, and the bound. Returns the complaints: a metric worse by
/// more than its bound, a count that changed, a failed share that rose,
/// or a value missing from either file.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut complaints = Vec::new();
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let pair = (
                number(a, workload, "end_to_end", m.name, "median"),
                number(b, workload, "end_to_end", m.name, "median"),
            );
            let (Some(x), Some(y)) = pair else {
                complaints.push(format!("{workload} {}: missing from a file", m.name));
                continue;
            };
            // No share of a zero median: every metric is chosen never to
            // be 0, so a 0 is a run that measured nothing.
            if x == 0.0 {
                complaints.push(format!("{workload} {}: A's median is 0", m.name));
                continue;
            }
            let worse = if m.better == "lower" { y - x } else { x - y } / x;
            let verdict = if worse > m.bound {
                complaints.push(format!(
                    "{workload} {}: {:.1}% worse, bound {:.0}%",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0
                ));
                "  OUTSIDE"
            } else if worse < -m.bound {
                "  better"
            } else {
                ""
            };
            println!(
                "{workload:<13} {:<12} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%{verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.count) {
            let pair = (
                number(a, workload, "per_layer", m.name, "value"),
                number(b, workload, "per_layer", m.name, "value"),
            );
            match pair {
                (Some(x), Some(y)) if x == y => {}
                (Some(x), Some(y)) => {
                    complaints.push(format!("{workload} {}: count {x} became {y}", m.name))
                }
                _ => complaints.push(format!("{workload} {}: missing from a file", m.name)),
            }
        }
        match (failed_share(a, workload), failed_share(b, workload)) {
            (Some(x), Some(y)) if y <= x => {}
            (Some(x), Some(y)) => {
                complaints.push(format!("{workload}: failed share {x} rose to {y}"))
            }
            _ => complaints.push(format!("{workload}: operation counts missing from a file")),
        }
    }
    complaints
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_ir::json::ObjBuilder;

    /// A results file in which every end-to-end median is 1 except
    /// `op_ms_p50`, and every count is `count`.
    fn file(op_ms: f64, count: Option<f64>, failed: f64) -> Json {
        let mut workloads = ObjBuilder::new();
        for (w, _) in WORKLOADS {
            let mut e2e = ObjBuilder::new();
            for m in END_TO_END {
                let v = if m.name == "op_ms_p50" { op_ms } else { 1.0 };
                e2e = e2e.set(m.name, ObjBuilder::new().num("median", v).build());
            }
            let mut layers = ObjBuilder::new();
            for m in PER_LAYER.iter().filter(|m| m.count) {
                if let Some(v) = count {
                    layers = layers.set(m.name, ObjBuilder::new().num("value", v).build());
                }
            }
            workloads = workloads.set(
                w,
                ObjBuilder::new()
                    .num("attempted", 10.0)
                    .num("failed", failed)
                    .set("end_to_end", e2e.build())
                    .set("per_layer", layers.build())
                    .build(),
            );
        }
        ObjBuilder::new()
            .set("workloads", workloads.build())
            .build()
    }

    #[test]
    fn flags_regressions_counts_and_failures_only() {
        let base = file(1.0, Some(100.0), 0.0);
        let counts = PER_LAYER.iter().filter(|m| m.count).count();
        let complaints = |b: &Json| compare(&base, b).len();
        assert_eq!(complaints(&file(1.2, Some(100.0), 0.0)), 0);
        assert_eq!(complaints(&file(0.5, Some(100.0), 0.0)), 0);
        assert_eq!(complaints(&file(1.3, Some(100.0), 0.0)), WORKLOADS.len());
        assert_eq!(
            complaints(&file(1.0, Some(101.0), 0.0)),
            WORKLOADS.len() * counts
        );
        assert_eq!(complaints(&file(1.0, None, 0.0)), WORKLOADS.len() * counts);
        assert_eq!(complaints(&file(1.0, Some(100.0), 1.0)), WORKLOADS.len());
        // Fewer failures than before is not a complaint; a zero median is.
        assert!(compare(&file(1.0, Some(100.0), 1.0), &base).is_empty());
        assert_eq!(
            compare(&file(0.0, Some(100.0), 0.0), &base).len(),
            WORKLOADS.len()
        );
    }
}
