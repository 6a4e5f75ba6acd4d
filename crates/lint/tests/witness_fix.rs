//! Evidence contract over the fixture corpus.
//!
//! Two properties hold for every fail fixture:
//!
//! 1. **Witnesses execute.** Every value-domain finding (`E0601`,
//!    `E0602`, `E0603` in CQL; `E0903`, `E0905` in pipeline documents)
//!    produces a witness that the shipped engine *confirms* — the
//!    interval analysis' claims are replayed, not trusted.
//! 2. **Fixes are idempotent.** Applying every machine-applicable
//!    suggestion and re-linting yields a document with zero
//!    machine-applicable findings, and a second `--fix` pass is a
//!    byte-for-byte no-op.

use std::fs;
use std::path::{Path, PathBuf};

use esp_lint::{apply_fixes, lint_cql, lint_json, synthesize_witnesses, WitnessOutcome};
use esp_types::{Diagnostic, Severity, Span};

fn fail_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("fail")
}

fn lint_file(path: &Path, source: &str) -> Vec<Diagnostic> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("cql") => lint_cql(source),
        Some("json") => lint_json(source),
        other => panic!("unexpected extension {other:?} for {}", path.display()),
    }
}

fn fail_fixtures() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(fail_dir())
        .expect("fixtures/fail exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    paths.sort();
    paths
}

const WITNESSED: &[&str] = &["E0601", "E0602", "E0603", "E0903", "E0905"];

/// The acceptance bar: every value-domain finding over the fixture
/// corpus synthesizes a witness the engine confirms. `NotAttempted` is a
/// failure here — the shipped fixtures are all executable.
#[test]
fn every_value_domain_fixture_finding_has_an_engine_confirmed_witness() {
    let mut confirmed = 0;
    for path in fail_fixtures() {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let mut diags = lint_file(&path, &source);
        let targets: Vec<(&'static str, Option<Span>)> = diags
            .iter()
            .filter(|d| WITNESSED.contains(&d.code))
            .map(|d| (d.code, d.span))
            .collect();
        let witnesses = synthesize_witnesses(&source, &mut diags);
        for (code, span) in targets {
            let w = witnesses
                .iter()
                .find(|w| {
                    w.code == code
                        && w.span.map(|s| (s.start, s.end)) == span.map(|s| (s.start, s.end))
                })
                .unwrap_or_else(|| {
                    panic!("{}: no witness for {code}", path.display());
                });
            assert!(
                matches!(w.outcome, WitnessOutcome::Confirmed { .. }),
                "{}: witness for {code} not confirmed:\n{}",
                path.display(),
                w.render()
            );
            assert!(
                !w.inputs.is_empty(),
                "{}: confirmed witness for {code} carries no input tuples",
                path.display()
            );
            let transcript = w.render();
            assert!(transcript.contains("CONFIRMED"), "{transcript}");
            assert!(transcript.contains(code), "{transcript}");
            confirmed += 1;
        }
    }
    // The corpus ships (at least) one fixture per witnessed code.
    assert!(
        confirmed >= WITNESSED.len(),
        "expected >= {} confirmed witnesses across the corpus, got {confirmed}",
        WITNESSED.len()
    );
}

/// A finding the engine contradicts is downgraded, not shipped: hand the
/// synthesizer a fabricated `E0601` over a predicate that is plainly
/// satisfiable and watch it demote the diagnostic to a warning with an
/// explanatory note.
#[test]
fn refuted_witness_downgrades_the_finding() {
    let source = "\
-- lint: stream readings temp_voltage
-- lint: range readings.temp 0..10
SELECT * FROM readings WHERE temp < 5\n";
    let stmt = esp_query::parse(source).expect("parses");
    let span = stmt.where_clause.as_ref().expect("has WHERE").span();
    let mut diags = vec![Diagnostic::error(
        "E0601",
        "WHERE predicate is always false under the declared field ranges",
    )
    .with_span(span)];
    let witnesses = synthesize_witnesses(source, &mut diags);
    assert_eq!(witnesses.len(), 1);
    assert!(
        matches!(witnesses[0].outcome, WitnessOutcome::Refuted { .. }),
        "{}",
        witnesses[0].render()
    );
    assert_eq!(diags[0].severity, Severity::Warning, "not downgraded");
    assert!(
        diags[0].notes.iter().any(|n| n.contains("refuted")),
        "no refutation note: {:?}",
        diags[0].notes
    );
}

/// Fix idempotence, fixture by fixture: patch, re-lint, and the
/// machine-applicable surface must be *empty*; patch again and the
/// bytes must not move.
#[test]
fn fixes_are_idempotent_over_every_fail_fixture() {
    let mut fixed_any = 0;
    for path in fail_fixtures() {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let diags = lint_file(&path, &source);
        let Some(out) = apply_fixes(&source, &diags) else {
            continue;
        };
        fixed_any += 1;
        assert_ne!(out.fixed, source, "{}: fix changed nothing", path.display());
        assert!(out.applied > 0);
        let rediags = lint_file(&path, &out.fixed);
        let leftover: Vec<_> = rediags
            .iter()
            .filter(|d| d.has_machine_applicable_fix())
            .collect();
        assert!(
            leftover.is_empty(),
            "{}: machine-applicable findings survive --fix: {leftover:#?}",
            path.display()
        );
        // Second pass: byte-for-byte no-op.
        assert!(
            apply_fixes(&out.fixed, &rediags).is_none(),
            "{}: second --fix pass still wants to patch",
            path.display()
        );
    }
    // The corpus ships machine-applicable repairs for at least the
    // always-true-filter, misaligned-window, and dead-column classes.
    assert!(
        fixed_any >= 4,
        "expected >= 4 fixtures with machine-applicable fixes, got {fixed_any}"
    );
}

/// The classes the issue names as force-fixable actually are.
#[test]
fn named_fixture_classes_carry_machine_applicable_fixes() {
    for name in [
        "e0201_window_below_epoch.cql",
        "e0202_window_not_multiple.cql",
        "e0602_redundant_filter.cql",
        "e0901_dead_count_column.json",
    ] {
        let path = fail_dir().join(name);
        let source = fs::read_to_string(&path).expect("fixture readable");
        let diags = lint_file(&path, &source);
        assert!(
            diags.iter().any(|d| d.has_machine_applicable_fix()),
            "{name}: no machine-applicable fix attached"
        );
    }
}

/// The maybe-incorrect class is suggested but never auto-applied.
#[test]
fn durability_repairs_are_flagged_but_not_applied() {
    let name = "e0903_volatile_stage_under_durability.json";
    let path = fail_dir().join(name);
    let source = fs::read_to_string(&path).expect("fixture readable");
    let diags = lint_file(&path, &source);
    let suggestions: Vec<_> = diags.iter().flat_map(|d| d.suggestions.iter()).collect();
    assert!(!suggestions.is_empty(), "{name}: no suggestion attached");
    assert!(
        suggestions.iter().all(|s| !s.is_machine_applicable()),
        "{name}: durability repair must be maybe-incorrect"
    );
    assert!(
        apply_fixes(&source, &diags).is_none(),
        "{name}: --fix must not touch maybe-incorrect repairs"
    );
}

/// The patched always-true-filter fixture drops the WHERE clause but
/// keeps the query meaning-preserving (it still parses and lints with
/// nothing but the now-impossible finding gone).
#[test]
fn patched_redundant_filter_still_parses() {
    let path = fail_dir().join("e0602_redundant_filter.cql");
    let source = fs::read_to_string(&path).expect("fixture readable");
    let out = apply_fixes(&source, &lint_cql(&source)).expect("has a fix");
    assert!(!out.fixed.to_uppercase().contains("WHERE"), "{}", out.fixed);
    esp_query::parse(&out.fixed).expect("patched CQL parses");
    assert!(
        lint_cql(&out.fixed).is_empty(),
        "patched fixture lints clean"
    );
}
