//! `compare A.json B.json`: two result files, metric by metric.
//!
//! This is the repeat criterion (the same code, minutes apart, must agree
//! with itself) and the tool for interleaved parent / change pairs.

use std::fmt::Write as _;

use crate::catalog::{Better, Rule, END_TO_END};
use crate::json::Json;

/// Exact metrics are only exact under one seed; across seeds they get this
/// share when `BENCHMARK.json` gives the metric no bound of its own.
const CROSS_SEED_SHARE: f64 = 0.05;

#[derive(Debug, PartialEq)]
pub struct Comparison {
    pub table: String,
    pub differing: usize,
}

fn value(doc: &Json, metric: &str) -> Option<f64> {
    doc.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
}

pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("not a result file: no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut table = String::new();
    let mut differing = 0;
    let mut compared = 0;
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else { continue };
        compared += 1;
        let same_seed = ra.get("seed") == rb.get("seed");
        let _ = writeln!(
            table,
            "{name}{}",
            if same_seed {
                ""
            } else {
                "  (seeds differ: exact metrics judged by share)"
            }
        );
        let digests = (
            ra.get("sim_digest").and_then(Json::as_str),
            rb.get("sim_digest").and_then(Json::as_str),
        );
        if same_seed {
            let equal = digests.0.is_some() && digests.0 == digests.1;
            differing += usize::from(!equal);
            let _ = writeln!(
                table,
                "  {:<20} {:>16} {:>16} {:>22}  {}",
                "sim_digest",
                digests.0.unwrap_or("-"),
                digests.1.unwrap_or("-"),
                "",
                if equal {
                    "agree (equal)"
                } else {
                    "DIFFER (must be equal)"
                }
            );
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (value(ra, m.name), value(rb, m.name)) else {
                return Err(format!("{name}: {} is missing from a file", m.name));
            };
            let ratio = if va != 0.0 {
                format!("B/A {:.4} (base A)", vb / va)
            } else {
                "B/A -".to_string()
            };
            let share = match m.rule {
                Rule::Exact if same_seed => None,
                Rule::Exact => Some(m.driver_bound.unwrap_or(CROSS_SEED_SHARE)),
                Rule::Share(s) => Some(s),
            };
            let verdict = match share {
                None if va == vb => "agree (equal)".to_string(),
                None => "DIFFER (must be equal)".to_string(),
                Some(s) if (vb - va).abs() <= s * va.abs() => {
                    format!("agree (within {:.1}%)", s * 100.0)
                }
                Some(s) => {
                    let worse = (vb > va) == (m.better == Better::Lower);
                    format!(
                        "DIFFER ({} by more than {:.1}%)",
                        if worse { "worse" } else { "better" },
                        s * 100.0
                    )
                }
            };
            differing += usize::from(verdict.starts_with("DIFFER"));
            let _ = writeln!(
                table,
                "  {:<20} {:>16.6} {:>16.6} {:>22}  {verdict}",
                m.name, va, vb, ratio
            );
        }
    }
    if compared == 0 {
        return Err("the files have no workload in common".to_string());
    }
    Ok(Comparison { table, differing })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: &str, digest: &str, tweak: impl Fn(&str, f64) -> f64) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let base = if m.name == "op_fail_frac" { 0.0 } else { 100.0 };
            (
                m.name,
                Json::obj([("value", Json::Num(tweak(m.name, base)))]),
            )
        }));
        Json::obj([(
            "workloads",
            Json::obj([(
                "seq_read",
                Json::obj([
                    ("seed", Json::Str(seed.to_string())),
                    ("sim_digest", Json::Str(digest.to_string())),
                    ("end_to_end", metrics),
                ]),
            )]),
        )])
    }

    #[test]
    fn identical_files_agree() {
        let a = file("0x1", "d", |_, v| v);
        assert_eq!(compare(&a, &a).unwrap().differing, 0);
    }

    #[test]
    fn timings_get_their_share_and_exact_metrics_none() {
        let a = file("0x1", "d", |_, v| v);
        let b = file(
            "0x1",
            "d",
            |name, v| if name == "host_cpu_s" { v * 1.09 } else { v },
        );
        assert_eq!(compare(&a, &b).unwrap().differing, 0, "9% is inside 10%");
        let b = file(
            "0x1",
            "d",
            |name, v| if name == "host_cpu_s" { v * 1.11 } else { v },
        );
        let c = compare(&a, &b).unwrap();
        assert_eq!(c.differing, 1);
        assert!(c.table.contains("worse by more than 10.0%"), "{}", c.table);
        let b = file("0x1", "e", |name, v| {
            if name == "sim_kb_per_s" {
                v + 1e-9
            } else {
                v
            }
        });
        assert_eq!(
            compare(&a, &b).unwrap().differing,
            2,
            "digest and the metric itself"
        );
    }

    #[test]
    fn across_seeds_exact_metrics_fall_back_to_a_share() {
        let a = file("0x1", "d", |_, v| v);
        let b = file("0x2", "e", |name, v| {
            if name == "sim_kb_per_s" {
                v * 1.01
            } else {
                v
            }
        });
        assert_eq!(compare(&a, &b).unwrap().differing, 0);
    }

    #[test]
    fn unrelated_files_are_an_error() {
        let a = file("0x1", "d", |_, v| v);
        assert!(compare(
            &a,
            &Json::obj([("workloads", Json::obj([("x", Json::Null)]))])
        )
        .is_err());
        assert!(compare(&a, &Json::Null).is_err());
    }
}
