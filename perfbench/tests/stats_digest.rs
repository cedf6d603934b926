//! The percentile rule, the digest fold, and metric names.

use perfbench::digest::{self, Digest};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::report::{result_json, valid_name, Metric};
use perfbench::stats::{beyond, epoch_floor, percentile};

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(beyond(99, 0.9), 9);
    assert_eq!(percentile(&xs, 0.9), None);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(percentile(&xs, 0.9), Some(90.0));
    // Exactly ten values lie above the reported one.
    assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), 10);
}

#[test]
fn median_needs_twenty_samples() {
    assert_eq!(percentile(&[1.0; 19], 0.5), None);
    assert_eq!(percentile(&[2.0; 20], 0.5), Some(2.0));
}

#[test]
fn percentile_ignores_input_order() {
    let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
    let a = percentile(&xs, 0.9);
    xs.sort_by(f64::total_cmp);
    assert_eq!(a, percentile(&xs, 0.9));
    assert_eq!(a, Some(179.0));
}

#[test]
fn epoch_floor_takes_each_epochs_fastest_sample() {
    let steady: Vec<f64> = (0..100).map(|i| 40.0 + f64::from(i % 10)).collect();
    let slow: Vec<f64> = steady.iter().map(|x| x * 1.5).collect();
    // A sample slowed as a whole, and one slowed in its second half only.
    let mut late = steady.clone();
    late[50..].iter_mut().for_each(|x| *x *= 2.0);
    let floor = epoch_floor(&[slow.clone(), late, steady.clone()]).unwrap();
    assert_eq!(floor, steady);
    assert_eq!(percentile(&floor, 0.9), Some(48.0));
    assert_eq!(epoch_floor(std::slice::from_ref(&slow)), Some(slow.clone()));
    // Samples of different lengths are not the same epochs.
    assert_eq!(epoch_floor(&[steady.clone(), slow[..50].to_vec()]), None);
    assert_eq!(epoch_floor(&[]), None);
    assert_eq!(epoch_floor(&[vec![]]), None);
}

#[test]
fn digest_is_pinned() {
    // FNV-1a over the little-endian bytes of (len, bits…) per series,
    // computed independently. The fold is part of the reference files' meaning: changing it
    // invalidates every stored digest.
    let d = digest::of_series(&[1.0, 2.5], &[0.0], &[-0.125]);
    assert_eq!(digest::hex(d), "e25ea7322a3654fb");
    assert_eq!(digest::parse_hex(&digest::hex(d)), Some(d));
}

#[test]
fn digest_sees_every_bit_and_the_order() {
    let base = digest::of_series(&[1.0, 2.0], &[3.0], &[4.0]);
    assert_eq!(base, digest::of_series(&[1.0, 2.0], &[3.0], &[4.0]));
    assert_ne!(base, digest::of_series(&[2.0, 1.0], &[3.0], &[4.0]));
    assert_ne!(base, digest::of_series(&[1.0], &[2.0, 3.0], &[4.0]));
    assert_ne!(
        base,
        digest::of_series(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)], &[3.0], &[4.0])
    );
    let mut a = Digest::new();
    a.series(&[0.0]);
    let mut b = Digest::new();
    b.series(&[-0.0]);
    assert_ne!(a, b, "0.0 and -0.0 differ in their bits");
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
    for n in &names {
        assert!(valid_name(n), "invalid metric name {n}");
    }
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name("slash/name"));
    assert!(!valid_name(&"x".repeat(65)));
}

/// `BENCHMARK.json` lists exactly the catalogue, with the same units.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let section = |key: &str| {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end].to_string()
    };
    for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed = section(key);
        let count = listed.matches("\"name\"").count();
        assert_eq!(count, catalogue.len(), "{key} lists {count} metrics");
        for (name, unit) in catalogue {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(listed.contains(&entry), "{key} lacks {entry}");
        }
    }
}

#[test]
fn result_line_shape() {
    let metrics = [
        Metric { name: "setup_s".into(), unit: "s", value: 0.8127 },
        Metric { name: "epochs_per_s".into(), unit: "1/s", value: 1.0 },
    ];
    assert_eq!(
        result_json(true, 3, 0, &metrics),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
         \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
         \"epochs_per_s\": {\"value\": 1.0, \"unit\": \"1/s\"}}}"
    );
}
