//! `benchmark compare BASE.json... [-- NEW.json...]`: apply the bounds
//! in `BENCHMARK.json` to two sets of result files and print one row
//! per workload, marking each end-to-end metric better, same, worse or
//! unresolved (run-to-run spread wider than the bound).

use crate::util::{median, quartiles, Json};
use crate::Res;
use std::collections::BTreeMap;

/// `workload -> metric -> values`, one value per result file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &[String]) -> Res<Runs> {
    let mut runs = Runs::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("read {f}: {e}"))?;
        let json = Json::parse(text.trim()).map_err(|e| format!("{f}: {e}"))?;
        if json
            .get("valid")
            .is_some_and(|v| !matches!(v, Json::Bool(true)))
        {
            return Err(format!("{f} is marked invalid; rerun it"));
        }
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{f} has no workload"))?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("{f} has no metrics"));
        };
        let entry = runs.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// Verdict for one metric. `worse_by` is the relative change of the
/// median in the "worse" direction.
fn verdict(base: &[f64], new: &[f64], lower_better: bool, bound: f64) -> (&'static str, f64) {
    let (mb, mn) = (median(base), median(new));
    let change = if mb == 0.0 { 0.0 } else { (mn - mb) / mb.abs() };
    let worse_by = if lower_better { change } else { -change };
    let better = |n: f64, b: f64| if lower_better { n < b } else { n > b };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let label = if all_better {
        "better"
    } else if spread(base).max(spread(new)) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    };
    (label, worse_by)
}

pub fn run(args: &[String]) -> Res<bool> {
    let (base, new): (Vec<String>, Vec<String>) = match args.iter().position(|a| a == "--") {
        Some(i) => (args[..i].to_vec(), args[i + 1..].to_vec()),
        None => match args.split_first() {
            Some((b, rest)) => (vec![b.clone()], rest.to_vec()),
            None => return Err("compare needs result files".into()),
        },
    };
    if base.is_empty() || new.is_empty() {
        return Err("compare needs at least one base and one new result file".into());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let catalog = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds: Vec<(String, bool, f64)> = catalog
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (base, new) = (load(&base)?, load(&new)?);
    let mut clean = true;
    for (workload, new_metrics) in &new {
        let Some(base_metrics) = base.get(workload) else {
            println!("{workload:16} (no base runs)");
            continue;
        };
        let mut row = format!("{workload:16}");
        for (name, lower_better, bound) in &bounds {
            let (Some(b), Some(n)) = (base_metrics.get(name), new_metrics.get(name)) else {
                continue;
            };
            let (label, worse_by) = verdict(b, n, *lower_better, *bound);
            clean &= matches!(label, "better" | "same");
            row.push_str(&format!(
                "  {name} {label} ({:+.1}%, bound {:.0}%, n {}+{})",
                worse_by * 100.0,
                bound * 100.0,
                b.len(),
                n.len()
            ));
        }
        println!("{row}");
    }
    Ok(clean)
}
