//! Zero-false-positive bar for the whole-pipeline dataflow analyses.
//!
//! Each e2e suite (`pipeline_rfid_e2e`, `pipeline_redwood_e2e`,
//! `pipeline_home_e2e`) builds its cascade programmatically; this suite
//! expresses the same cascades as deployment/pipeline documents and
//! requires `esp-lint` — including the E09xx dataflow analyses — to stay
//! silent on them. A finding here means the analyses would flag a
//! pipeline the paper itself ships, which is the definition of a false
//! positive.

use esp_core::DeploymentSpec;
use esp_lint::{lint_json, lint_pipeline};

/// The §4 shelf pipeline (`pipeline_rfid_e2e::paper_pipeline`) as a
/// durable gateway document: Smooth count-by-key into Arbitrate.
const RFID_PIPELINE: &str = r#"{
    "gateway": {
        "period": "200 ms",
        "max_lateness": "1 sec",
        "edge_capacity": 4096,
        "n_shards": 2,
        "durable": true
    },
    "cardinalities": { "tag_id": 30 },
    "deployment": {
        "temporal_granule": "5 sec",
        "groups": [
            { "granule": "shelf0", "receptor_type": "rfid", "members": [0] },
            { "granule": "shelf1", "receptor_type": "rfid", "members": [1] }
        ],
        "stages": [
            { "smooth": { "mode": "count_by_key",
                          "keys": ["spatial_granule", "tag_id"] } },
            { "arbitrate": { "tie_break": { "priority": ["shelf1", "shelf0"] } } }
        ]
    }
}"#;

/// The §5 lab pipeline (`pipeline_redwood_e2e::lab_pipeline`): Point
/// range filter at 50 °C into an outlier-filtered Merge mean.
const LAB_DEPLOYMENT: &str = r#"{
    "temporal_granule": "5 min",
    "groups": [
        { "granule": "lab-room", "receptor_type": "mote", "members": [0, 1, 2] }
    ],
    "stages": [
        { "point": { "range_filters": [
            { "field": "temp", "max": 50.0 }
        ] } },
        { "merge": { "mode": "outlier_filtered_mean",
                     "value_field": "temp", "k": 1.0 } }
    ]
}"#;

/// The §6 digital-home mote branch
/// (`pipeline_home_e2e::five_stage_pipeline`): windowed-mean Smooth,
/// median Merge, and the Person-in-room Virtualize vote.
const HOME_DEPLOYMENT: &str = r#"{
    "temporal_granule": "5 sec",
    "groups": [
        { "granule": "office", "receptor_type": "mote", "members": [10, 11, 12] }
    ],
    "stages": [
        { "smooth": { "mode": "windowed_mean",
                      "keys": ["spatial_granule", "receptor_id"],
                      "value_field": "noise" } },
        { "merge": { "mode": "windowed_median", "value_field": "noise" } },
        { "virtualize": {
            "event": "Person-in-room",
            "threshold": 1,
            "rules": [
                { "kind": "numeric_above", "field": "noise", "threshold": 525.0 }
            ]
        } }
    ]
}"#;

/// Every document here must also actually deploy — the lint bar is only
/// meaningful for specs the runtime accepts.
fn assert_deployable(doc: &str) {
    DeploymentSpec::from_json(doc).expect("document parses as a deployment");
}

#[test]
fn rfid_e2e_pipeline_lints_clean() {
    let diags = lint_pipeline(RFID_PIPELINE);
    assert!(
        diags.is_empty(),
        "rfid pipeline false positives: {diags:#?}"
    );
}

#[test]
fn lab_e2e_deployment_lints_clean() {
    assert_deployable(LAB_DEPLOYMENT);
    let diags = lint_json(LAB_DEPLOYMENT);
    assert!(diags.is_empty(), "lab pipeline false positives: {diags:#?}");
}

#[test]
fn home_e2e_deployment_lints_clean() {
    assert_deployable(HOME_DEPLOYMENT);
    let diags = lint_json(HOME_DEPLOYMENT);
    assert!(
        diags.is_empty(),
        "home pipeline false positives: {diags:#?}"
    );
}
