//! # esp-lint
//!
//! Static analysis for ESP pipelines — every check runs **before any
//! tuple flows**, so a misconfigured deployment is rejected at the desk,
//! not discovered as silently wrong output in production.
//!
//! The paper's framework is configuration-heavy: CQL stage queries,
//! temporal granules, proximity groups, gateway sharding. Each knob has
//! failure modes that type-check fine in Rust and only bite at runtime
//! (an aggregate over a string column, a window eviction that cuts
//! through an epoch, a receptor no Merge group covers, a global-scope
//! stage split across gateway shards). This crate
//! collects those checks under stable diagnostic codes:
//!
//! | range | area | examples |
//! |-------|------|----------|
//! | E00xx | input itself | `E0001` syntax error, `E0002` bad lint directive |
//! | E01xx | schema / types | `E0101` unknown field, `E0103` aggregate arg type |
//! | E02xx | temporal granules | `E0201` window below epoch, `E0202` not a multiple |
//! | E03xx | spatial granules | `E0301` ungrouped receptor, `E0303` duplicate granule |
//! | E04xx | graph structure | retired: `E0401`–`E0407` (an append-only `Dataflow` cannot hold these defects) |
//! | E05xx | gateway | `E0501` lateness ≥ window, `E0502` global stage sharded |
//! | E06xx | semantics (abstract interpretation) | `E0601` dead stage, `E0603` reachable zero divisor, `E0604` schema drift |
//! | E07xx | concurrency (model checker) | `E0703` watermark regression (`E0701`/`E0702`/`E0704` retired) |
//! | E08xx | durability | `E0801` unaligned checkpoint interval, `E0802` WAL retention below lateness, `E0803` zero snapshot retention, `E0804` non-checkpointable stage |
//! | E09xx | whole-pipeline dataflow (fixpoint engine) | `E0901` dead computed column, `E0902` receptor stream reaching no output, `E0903` nondeterministic stage under durability, `E0904` lateness exceeds window depth, `E0905` unbounded retained state |
//!
//! The `E06xx` pass interprets predicates and arithmetic over declared
//! field ranges (`-- lint: range <stream>.<field> <lo>..<hi>`) and
//! deployment documents; `E0703` is emitted by the deterministic
//! schedule explorer in `esp-gateway::model`, which exhausts every
//! interleaving of small gateway watermark configurations. The `E09xx`
//! family is computed by the
//! [`flow`] module's generic monotone-framework fixpoint engine over the
//! whole stage cascade (backward field liveness, forward determinism
//! taint, lateness and state-bound budget propagation); pipeline
//! documents — a deployment plus the gateway knobs it runs under — are
//! linted end to end by [`flow::lint_pipeline`].
//!
//! Three surfaces expose the checks:
//!
//! - **library**: [`lint_cql`], [`lint_deployment`], [`lint_gateway`]
//!   and [`flow::lint_pipeline`]. The same validators gate the runtime
//!   entry points — `EspProcessor::deploy` and `Gateway::spawn` refuse
//!   to start on any error, returning the diagnostics in
//!   `EspError::Invalid`.
//! - **CLI**: the `esp-lint` binary lints `.cql` and deployment `.json`
//!   files with rustc-style rendering and spans into the original text.
//! - **CI**: the `lint-pipelines` job runs the CLI over every shipped
//!   example and fixture; any diagnostic fails the build.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The linter must never panic on the inputs it exists to criticize.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod absint;
pub mod codes;
pub mod cql;
pub mod fix;
pub mod flow;
pub mod witness;

pub use codes::{explain, CodeInfo, CODES};
pub use cql::lint_cql;
pub use fix::{apply_fixes, FixOutcome};
pub use flow::{fixpoint, lint_pipeline, Direction, Facts, FlowGraph, Lattice, PipelineSpec};
pub use witness::{synthesize_witnesses, Witness, WitnessOutcome};

use esp_core::DeploymentSpec;
use esp_durability::DurabilitySpec;
use esp_gateway::GatewayConfig;
use esp_types::{Diagnostic, TimeDelta};

/// The single `E0001` every JSON linter emits for a document that fails
/// to deserialize, so the failure shape stays uniform across deployment,
/// durability, and pipeline inputs.
pub(crate) fn parse_failure(kind: &str, err: &dyn std::fmt::Display) -> Vec<Diagnostic> {
    vec![Diagnostic::error(
        "E0001",
        format!("{kind} document does not parse: {err}"),
    )]
}

/// Lint a JSON deployment document (the [`DeploymentSpec`] wire form).
///
/// A document that does not deserialize yields a single `E0001`; one
/// that does is checked for temporal-granule consistency (E0201/E0203/
/// E0204), spatial-group defects (E0302/E0303/E0304), the semantic
/// `E06xx` pass ([`DeploymentSpec::analyze`] — dead Point filters,
/// receptor schema drift, granule-unit mismatches), and the backward
/// field-liveness pass (E0901 dead computed column, E0902 receptor
/// stream whose fields are never read).
pub fn lint_deployment(json: &str) -> Vec<Diagnostic> {
    match DeploymentSpec::from_json(json) {
        Ok(spec) => {
            let mut diags = spec.validate();
            diags.extend(spec.analyze());
            let engine = esp_query::Engine::new();
            diags.extend(flow::liveness_pass(&spec, json, &engine));
            esp_types::diag::sort_diagnostics(&mut diags);
            diags
        }
        Err(e) => parse_failure("deployment", &e),
    }
}

/// Lint a JSON durability document (the [`DurabilitySpec`] wire form:
/// the persistence knobs plus the epoch period and lateness they must
/// agree with).
///
/// A document that does not deserialize yields a single `E0001`; one
/// that does is checked for unparseable time spans (`E0204`) and the
/// durability invariants: `E0801` (checkpoint interval not a positive
/// multiple of the epoch period), `E0802` (WAL retention shorter than
/// the permitted lateness), `E0803` (zero snapshot retention), `E0804`
/// (a declared stage kind — the optional `stages` list — has no
/// serialized state form and so cannot be checkpointed).
pub fn lint_durability(json: &str) -> Vec<Diagnostic> {
    match DurabilitySpec::from_json(json) {
        Ok(spec) => {
            let mut diags = spec.lint();
            // E0804 is emitted by the durability crate without document
            // context; attach the span of the offending stage entry and
            // a (human-confirmed) removal suggestion here, where the
            // source text is in hand.
            for d in diags.iter_mut().filter(|d| d.code == "E0804") {
                if d.span.is_none() {
                    if let Some(off) = json.find("\"declarative\"") {
                        d.span = Some(esp_types::Span::new(off, off + "\"declarative\"".len()));
                    }
                }
                if let Some(sugg) = fix::declarative_stage_suggestion(json) {
                    d.suggestions.push(sugg);
                }
            }
            esp_types::diag::sort_diagnostics(&mut diags);
            diags
        }
        Err(e) => parse_failure("durability", &e),
    }
}

/// Route a JSON document to the linter its shape calls for: a top-level
/// `durability` key marks a durability document ([`lint_durability`]),
/// a top-level `gateway` key marks a pipeline document
/// ([`flow::lint_pipeline`]), anything else is a deployment
/// ([`lint_deployment`]). The CLI and the fixture suite both dispatch
/// `.json` inputs through here.
pub fn lint_json(json: &str) -> Vec<Diagnostic> {
    let doc = serde_json::from_str::<serde::value::Value>(json).ok();
    let has = |key: &str| doc.as_ref().map(|v| v.get(key).is_some()).unwrap_or(false);
    if has("durability") {
        lint_durability(json)
    } else if has("gateway") {
        flow::lint_pipeline(json)
    } else {
        lint_deployment(json)
    }
}

/// Lint a gateway configuration against the smoothing window of the
/// pipeline it will feed (`None` when the window is unknown — the
/// lateness-vs-window check E0501 is then skipped).
///
/// Thin re-export of [`GatewayConfig::validate`] so callers holding only
/// this crate see the whole check surface in one place.
pub fn lint_gateway(config: &GatewayConfig, smooth_window: Option<TimeDelta>) -> Vec<Diagnostic> {
    config.validate(smooth_window)
}

/// What kind of artifact an embedded example is, which decides the
/// linter that runs over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExampleKind {
    /// CQL query text with `-- lint:` directives.
    Cql,
    /// JSON deployment document.
    Deployment,
    /// JSON pipeline document (deployment + gateway knobs).
    Pipeline,
}

/// A named, embedded example pipeline the CLI can lint without touching
/// the filesystem (`esp-lint --example <name>`).
#[derive(Debug, Clone, Copy)]
pub struct Example {
    /// Name accepted by `--example`.
    pub name: &'static str,
    /// Which linter applies.
    pub kind: ExampleKind,
    /// The artifact text.
    pub source: &'static str,
}

/// The shipped example pipelines: the paper's queries 1–6 and the §4
/// shelf deployment, all of which must lint clean (the zero-false-
/// positive bar the test suite enforces).
pub const EXAMPLES: &[Example] = &[
    Example {
        name: "q1-shelf-count",
        kind: ExampleKind::Cql,
        source: include_str!("../fixtures/clean/q1_shelf_count.cql"),
    },
    Example {
        name: "q2-smooth",
        kind: ExampleKind::Cql,
        source: include_str!("../fixtures/clean/q2_smooth.cql"),
    },
    Example {
        name: "q3-arbitrate",
        kind: ExampleKind::Cql,
        source: include_str!("../fixtures/clean/q3_arbitrate.cql"),
    },
    Example {
        name: "q4-point-filter",
        kind: ExampleKind::Cql,
        source: include_str!("../fixtures/clean/q4_point_filter.cql"),
    },
    Example {
        name: "q5-merge-outlier",
        kind: ExampleKind::Cql,
        source: include_str!("../fixtures/clean/q5_merge_outlier.cql"),
    },
    Example {
        name: "q6-person-detector",
        kind: ExampleKind::Cql,
        source: include_str!("../fixtures/clean/q6_person_detector.cql"),
    },
    Example {
        name: "rfid-shelf-deployment",
        kind: ExampleKind::Deployment,
        source: include_str!("../fixtures/clean/rfid_shelf_deployment.json"),
    },
    Example {
        name: "durable-shelf-pipeline",
        kind: ExampleKind::Pipeline,
        source: include_str!("../fixtures/clean/durable_shelf_pipeline.json"),
    },
];

/// Lint one embedded example by name; `None` for an unknown name.
pub fn lint_example(name: &str) -> Option<Vec<Diagnostic>> {
    let ex = EXAMPLES.iter().find(|e| e.name == name)?;
    Some(match ex.kind {
        ExampleKind::Cql => lint_cql(ex.source),
        ExampleKind::Deployment => lint_deployment(ex.source),
        ExampleKind::Pipeline => flow::lint_pipeline(ex.source),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_embedded_example_lints_clean() {
        for ex in EXAMPLES {
            let diags = lint_example(ex.name).unwrap();
            assert!(
                diags.is_empty(),
                "example '{}' should lint clean, got: {:#?}",
                ex.name,
                diags
            );
        }
    }

    #[test]
    fn unknown_example_is_none() {
        assert!(lint_example("no-such-pipeline").is_none());
    }

    #[test]
    fn undeserializable_deployment_is_e0001() {
        let diags = lint_deployment("{ not json");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0001");
    }

    #[test]
    fn undeserializable_durability_document_is_e0001() {
        let diags = lint_durability(r#"{"durability": {}}"#);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0001");
    }

    #[test]
    fn json_router_picks_linter_by_top_level_key() {
        // Durability shape → durability codes.
        let durability = r#"{
            "durability": {
                "dir": "/tmp/esp",
                "checkpoint_interval": "300 ms",
                "wal_retention": "1 min",
                "max_snapshots": 0
            },
            "epoch_period": "200 ms"
        }"#;
        let diags = lint_json(durability);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["E0801", "E0803"], "{diags:#?}");
        // Gateway shape → the pipeline linter (E0001 mentions "pipeline").
        let diags = lint_json(r#"{"gateway": {}}"#);
        assert!(
            diags
                .iter()
                .all(|d| d.code == "E0001" && d.message.contains("pipeline")),
            "{diags:#?}"
        );
        // Anything else → the deployment linter.
        let diags = lint_json("{}");
        assert!(diags.iter().all(|d| d.code == "E0001"), "{diags:#?}");
    }

    #[test]
    fn gateway_wrapper_matches_config_validate() {
        let config = GatewayConfig::new(vec![]);
        let direct = config.validate(None);
        let wrapped = lint_gateway(&config, None);
        assert_eq!(
            direct.iter().map(|d| d.code).collect::<Vec<_>>(),
            wrapped.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        assert!(wrapped.iter().any(|d| d.code == "E0503"));
    }
}
