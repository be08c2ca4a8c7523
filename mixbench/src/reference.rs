//! Reference outputs recorded from the program, and the comparison.
//!
//! Each file holds `seed key value` lines; seed `-` applies to every
//! seed (`fig4` runs the nominal-process circuits and ignores it).
//! Regenerate a workload's lines with `--record` (see README.md).

use std::collections::BTreeMap;

/// Allowed drift of a detection percentage, in percentage points.
/// Verdicts and counts must match exactly.
pub const PCT_TOLERANCE: f64 = 1.0;

fn table(workload: &str) -> &'static str {
    match workload {
        "fig4" => include_str!("../reference/fig4.txt"),
        "c1_dies_journaled" => include_str!("../reference/c1_dies_journaled.txt"),
        "adc_yield" => include_str!("../reference/adc_yield.txt"),
        _ => "",
    }
}

/// The reference outputs of `workload` at `seed` (empty when the seed
/// was not recorded).
pub fn lookup(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let seed = seed.to_string();
    table(workload)
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (s, key, value) = (parts.next()?, parts.next()?, parts.next()?);
            (s == "-" || s == seed).then(|| (key.to_owned(), value.parse().ok()))
        })
        .filter_map(|(k, v)| Some((k, v?)))
        .collect()
}

/// The tolerance a key is compared with.
pub fn tolerance(key: &str) -> f64 {
    if key.ends_with("/pct") {
        PCT_TOLERANCE
    } else {
        0.0
    }
}

/// Compares `outputs` with `reference`. A referenced key the outputs
/// lack is a mismatch only when `complete` (full-scale runs produce
/// every referenced key).
pub fn compare(
    reference: &BTreeMap<String, f64>,
    outputs: &BTreeMap<String, f64>,
    complete: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (key, want) in reference {
        match outputs.get(key) {
            Some(got) if (got - want).abs() <= tolerance(key) => {}
            Some(got) => bad.push(format!(
                "{key}: got {got}, reference {want} (tolerance {})",
                tolerance(key)
            )),
            None if complete => bad.push(format!("{key}: missing, reference {want}")),
            None => {}
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_get_a_tolerance_and_verdicts_none() {
        let reference: BTreeMap<String, f64> = [
            ("a/pct".to_owned(), 50.0),
            ("a/detected".to_owned(), 1.0),
            ("b/pct".to_owned(), 10.0),
        ]
        .into();
        let mut outputs = reference.clone();
        outputs.insert("a/pct".into(), 50.9);
        assert!(compare(&reference, &outputs, true).is_empty());
        outputs.insert("a/pct".into(), 51.1);
        outputs.insert("a/detected".into(), 0.0);
        assert_eq!(compare(&reference, &outputs, true).len(), 2);
        outputs.remove("b/pct");
        assert_eq!(compare(&reference, &outputs, false).len(), 2);
        assert_eq!(compare(&reference, &outputs, true).len(), 3);
    }
}
