//! Scenarios must regenerate their committed CSV artifacts
//! byte-identically and pass their paper-shape checks
//! (`ScenarioRun::ok`): a change to how a scenario computes its cells may
//! change the route, never the numbers. The checks cover claims no CSV
//! holds, such as L\*'s growth at v2 = 0 (`example4`), Theorem 4.3
//! (`example5`) and L\* ≤ HT (`ht_dominance`). CI's scenario suite pins
//! every CSV in release builds; this test guards the scenarios listed
//! here at `cargo test` time.

use std::path::PathBuf;

use monotone_bench::{csv_text, scenarios, Runner};
use monotone_engine::Engine;

/// The committed results directory (the workspace's `results/`).
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

fn assert_regenerates(name: &str) {
    let scenario = scenarios::registry()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("{name} registered"));
    // Multi-shard, multi-worker on purpose: byte-identity must hold for
    // every execution geometry, not just the one that wrote the files.
    let run = Runner::new(Engine::with_threads(2))
        .with_shards(3)
        .run(scenario.as_ref())
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    assert!(run.ok, "{name}: paper-shape checks failed");
    for artifact in &run.artifacts {
        let path = results_dir().join(&artifact.spec.file);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read committed {}: {e}", path.display()));
        assert_eq!(
            csv_text(&artifact.spec.headers, &artifact.rows),
            committed,
            "{name}: {} diverged from the committed artifact",
            artifact.spec.file
        );
    }
}

#[test]
fn example4_regenerates_committed_csvs() {
    assert_regenerates("example4");
}

#[test]
fn example5_regenerates_committed_csvs() {
    assert_regenerates("example5");
}

#[test]
fn rg_ratios_regenerates_committed_csv() {
    assert_regenerates("rg_ratios");
}

#[test]
fn ht_dominance_regenerates_committed_csv() {
    assert_regenerates("ht_dominance");
}

#[test]
fn lp_difference_regenerates_committed_csv() {
    assert_regenerates("lp_difference");
}

#[test]
fn j_ratio_regenerates_committed_csv() {
    assert_regenerates("j_ratio");
}

#[test]
#[ignore = "debug-mode ADS construction takes minutes; the CI determinism job pins this CSV in release"]
fn similarity_regenerates_committed_csv() {
    assert_regenerates("similarity");
}

#[test]
fn lsh_regenerates_committed_csv() {
    assert_regenerates("lsh");
}

#[test]
fn coordination_gain_regenerates_committed_csv() {
    assert_regenerates("coordination_gain");
}

#[test]
fn multiway_regenerates_committed_csv() {
    assert_regenerates("multiway");
}

#[test]
fn error_scaling_regenerates_committed_csv() {
    assert_regenerates("error_scaling");
}

#[test]
fn service_regenerates_committed_csv() {
    assert_regenerates("service");
}

/// Splits CSV text into records of fields per RFC 4180: commas separate
/// fields, and a field opened by a double quote runs to the closing
/// quote, holding commas, line breaks and doubled (`""`) quotes.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            (true, '"') => quoted = false,
            (false, '"') if field.is_empty() => quoted = true,
            (false, ',') => record.push(std::mem::take(&mut field)),
            (false, '\n') => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            _ => field.push(c),
        }
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    records
}

/// Every committed CSV reads back, under RFC 4180, as records with
/// exactly as many fields as its header: a cell such as `L1({b,c,e})`
/// must not split into several fields.
#[test]
fn committed_csvs_parse_to_their_header_width() {
    let mut checked = 0;
    for entry in std::fs::read_dir(results_dir()).expect("read results dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read csv");
        let records = parse_csv(&text);
        let width = records.first().map_or(0, Vec::len);
        assert!(width > 0, "{}: no header", path.display());
        for (line, record) in records.iter().enumerate() {
            assert_eq!(
                record.len(),
                width,
                "{} record {line} has {} fields, the header {width}: {record:?}",
                path.display(),
                record.len()
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "no committed CSV found");
}

#[test]
fn csv_cells_with_commas_quotes_or_line_breaks_are_quoted() {
    let rows = vec![vec![
        "L1({b,c,e})".to_owned(),
        "say \"hi\"".to_owned(),
        "two\nlines".to_owned(),
        "plain".to_owned(),
    ]];
    let text = csv_text(&["a", "b", "c", "d"], &rows);
    assert_eq!(
        text,
        "a,b,c,d\n\"L1({b,c,e})\",\"say \"\"hi\"\"\",\"two\nlines\",plain\n"
    );
    assert_eq!(parse_csv(&text)[1], rows[0]);
}
