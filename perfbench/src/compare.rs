//! `perfbench compare PARENT.jsonl CHANGE.jsonl`: for every (workload,
//! metric) both result sets measured, print each side's median and
//! quartiles and a verdict. Runs are paired by seed (both sides must
//! run the same seeds); the direction and regression bound of each
//! metric come from `BENCHMARK.json`.

use crate::stats::{quartiles, verdict, Verdict};
use serde::Value;
use std::collections::BTreeMap;

/// Samples of one (workload, metric), in seed order.
type Series = BTreeMap<(String, String), Vec<(u64, f64)>>;

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return crate::usage("--spec needs a value"),
            }
        } else {
            files.push(a.clone());
        }
    }
    let [parent, change] = files.as_slice() else {
        return crate::usage("compare needs two result files");
    };
    let loaded = (|| -> Result<_, String> {
        let spec = std::fs::read_to_string(&spec_path)
            .map_err(|e| format!("{spec_path}: {e}"))
            .and_then(|t| serde::json::parse(&t).map_err(|e| format!("{spec_path}: {e:?}")))?;
        Ok((spec, load(parent)?, load(change)?))
    })();
    let (spec, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    for line in report(&spec, &parent, &change) {
        println!("{line}");
    }
    0
}

/// Read a JSON-lines result file into per-(workload, metric) series.
fn load(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Series::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = serde::json::parse(line).map_err(|e| format!("{path}:{}: {e:?}", n + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("{path}:{}: no {k}", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_u64().unwrap_or_default();
        let metrics = field("result")?
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push((seed, x));
            }
        }
    }
    for samples in out.values_mut() {
        samples.sort_by_key(|&(seed, _)| seed);
    }
    Ok(out)
}

/// `(lower_is_better, bound)` per metric name, from `BENCHMARK.json`.
fn directions(spec: &Value) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut out = BTreeMap::new();
    for group in ["end_to_end", "per_layer"] {
        for m in spec.get(group).and_then(Value::as_array).unwrap_or(&[]) {
            let (Some(name), Some(better)) = (
                m.get("name").and_then(Value::as_str),
                m.get("better").and_then(Value::as_str),
            ) else {
                continue;
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(name.to_string(), (better == "lower", bound));
        }
    }
    out
}

fn report(spec: &Value, parent: &Series, change: &Series) -> Vec<String> {
    let dirs = directions(spec);
    let mut lines = vec![format!(
        "{:<20} {:<40} {:>6} {:>33} {:>33} {:>8}  verdict",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    )];
    for ((workload, metric), p) in parent {
        let Some(c) = change.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (lower, bound) = dirs.get(metric).copied().unwrap_or((true, None));
        let pv: Vec<f64> = p.iter().map(|s| s.1).collect();
        let cv: Vec<f64> = c.iter().map(|s| s.1).collect();
        let paired = p.iter().map(|s| s.0).eq(c.iter().map(|s| s.0));
        let v = if paired {
            verdict(&pv, &cv, lower)
        } else {
            Verdict::Unresolved
        };
        let (p1, pm, p3) = quartiles(&pv);
        let (c1, cm, c3) = quartiles(&cv);
        let delta = if pm == 0.0 { 0.0 } else { (cm - pm) / pm.abs() };
        let mut note = String::new();
        if !paired {
            note.push_str(" (seeds differ: not paired)");
        }
        if let Some(b) = bound {
            let worse_by = if lower { delta } else { -delta };
            if worse_by > b {
                note.push_str(&format!(" (worse than the {:.0}% bound)", b * 100.0));
            }
        }
        lines.push(format!(
            "{:<20} {:<40} {:>6} {:>11.5} [{:>9.5}, {:>9.5}] {:>11.5} [{:>9.5}, {:>9.5}] {:>+7.1}%  {}{}",
            workload,
            metric,
            pv.len().min(cv.len()),
            pm,
            p1,
            p3,
            cm,
            c1,
            c3,
            delta * 100.0,
            v.label(),
            note
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(workload: &str, metric: &str, values: &[f64]) -> Series {
        let mut s = Series::new();
        s.insert(
            (workload.into(), metric.into()),
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u64, v))
                .collect(),
        );
        s
    }

    #[test]
    fn report_pairs_by_seed_and_reads_direction_from_the_spec() {
        let spec = serde::json::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let parent = series(
            "cpu-tick",
            "wall_s",
            &[10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
        );
        let slower = series(
            "cpu-tick",
            "wall_s",
            &[12.0, 12.1, 11.9, 12.0, 12.2, 11.8, 12.0, 12.1, 11.9, 12.0],
        );
        let lines = report(&spec, &parent, &slower);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[1].contains("worse (worse than the 10% bound)"),
            "{}",
            lines[1]
        );
        let lines = report(&spec, &slower, &parent);
        assert!(lines[1].ends_with("better"), "{}", lines[1]);
    }

    #[test]
    fn load_reads_result_records() {
        let path =
            std::env::temp_dir().join(format!("perfbench-load-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"workload\":\"mem-govern\",\"seed\":4,\"result\":{\"correct\":true,\"attempted\":3,\
\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}}\n\
{\"workload\":\"mem-govern\",\"seed\":2,\"result\":{\"correct\":true,\"attempted\":3,\
\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}}\n",
        )
        .unwrap();
        let s = load(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            s[&("mem-govern".to_string(), "wall_s".to_string())],
            vec![(2, 1.25), (4, 1.5)],
            "sorted by seed"
        );
    }
}
