//! The committed `BENCH_baseline.json` is the exact ledger of modelled
//! results: a fresh in-process build must equal it field for field, and the
//! paper-level invariants must hold on it.
//!
//! After an intended change to a modelled result, regenerate the file with
//! `experiments bench --json --label baseline` and name every changed field
//! in the change's description.

use cgpa::dse::DEFAULT_AREA_BUDGET_ALUT;
use cgpa_bench::ledger;
use cgpa_obs::json::Json;

const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

fn parse(text: &str) -> Json {
    Json::parse(text).expect("ledger JSON parses")
}

#[test]
fn ledger_equals_the_committed_baseline() {
    let entries = ledger::build().expect("every ledger run succeeds and verifies");
    let diffs = ledger::diff(&parse(BASELINE), &parse(&ledger::to_json(&entries)));
    assert!(
        diffs.is_empty(),
        "the ledger differs from BENCH_baseline.json at {} path(s):\n{}",
        diffs.len(),
        diffs.join("\n")
    );

    assert_eq!(entries.len(), 5);
    for e in &entries {
        let (r, name) = (&e.report, &e.report.name);
        assert!(r.legup.cycles > r.cgpa_p1.cycles, "{name}: LegUp must be slower than CGPA P1");
        assert!(e.tuned.best.cycles <= e.tuned.baseline_cycles, "{name}: tuning made it slower");
        let rec = e.dse.recommended.as_ref().expect("a DSE recommendation");
        assert!(rec.alut <= DEFAULT_AREA_BUDGET_ALUT, "{name}: recommendation exceeds the budget");
    }
    assert!(
        entries.iter().any(|e| e.tuned.best.cycles < e.tuned.baseline_cycles),
        "the tuner helps on no kernel"
    );
}

/// A one-cycle move is far inside any percentage tolerance; the exact diff
/// reports it with its path and both values.
#[test]
fn diff_reports_a_one_cycle_move_with_its_path() {
    let base = parse(BASELINE);
    let kernel = &base.get("kernels").and_then(Json::as_arr).expect("a kernel list")[0];
    let cycles = kernel.get("cgpa_cycles").and_then(Json::as_u64).expect("P1 cycles");
    let field = |c: u64| format!("\"cgpa_cycles\": {c},");
    let moved = BASELINE.replacen(&field(cycles), &field(cycles + 1), 1);

    assert_eq!(ledger::diff(&base, &base), Vec::<String>::new());
    assert_eq!(
        ledger::diff(&base, &parse(&moved)),
        [format!("$.kernels[0].cgpa_cycles: baseline {cycles}, new {}", cycles + 1)]
    );
}

#[test]
fn diff_reports_absent_and_added_members() {
    let base = parse(r#"{"a": 1, "b": [1, 2]}"#);
    let new = parse(r#"{"b": [1], "c": {"d": "x"}}"#);
    assert_eq!(
        ledger::diff(&base, &new),
        [
            "$.a: baseline 1, new (absent)",
            "$.b[1]: baseline 2, new (absent)",
            r#"$.c: baseline (absent), new {"d": "x"}"#,
        ]
    );
}
