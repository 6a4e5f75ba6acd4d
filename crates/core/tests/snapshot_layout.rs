//! The processor's checkpoint layout, pinned byte for byte.
//!
//! The `smooth_*`/`merge_*` goldens pin each stage's own blob; this test
//! pins what the runner wraps around them: the node count, and the index
//! of every stateful node in a redwood-shaped processor whose fan-in
//! unions sit between the stages and after them. A change to how the
//! processor lays out its dataflow changes these bytes, and a snapshot
//! written before the change would no longer restore after it.

use esp_core::{
    EspProcessor, MergeStage, Pipeline, ProximityGroups, ReceptorBinding, SmoothStage,
    TemporalGranule,
};
use esp_stream::ScriptedSource;
use esp_types::{
    well_known, Batch, EspError, ReceptorId, ReceptorType, TimeDelta, Ts, Tuple, TupleBuilder,
};

const PERIOD_MS: u64 = 1_000;
const SPLIT: u64 = 6;

/// Two groups of two motes each.
const GROUPS: [(&str, [u32; 2]); 2] = [("north", [1, 2]), ("south", [3, 4])];

fn reading(ts: Ts, mote: u32, temp: f64) -> Tuple {
    TupleBuilder::new(&well_known::temp_schema(), ts)
        .set("receptor_id", mote as i64)
        .unwrap()
        .set("temp", temp)
        .unwrap()
        .build()
        .unwrap()
}

/// Mote `mote`'s readings for epochs `from..to`: a slow drift, every
/// fifth reading lost, and one fail-dirty spike the Merge stage must
/// reject.
fn script(mote: u32, from: u64, to: u64) -> Vec<(Ts, Batch)> {
    (from..to)
        .filter(|e| !(e + mote as u64).is_multiple_of(5))
        .map(|e| {
            let ts = Ts::from_millis(e * PERIOD_MS);
            let spike = if mote == 2 && e == 4 { 80.0 } else { 0.0 };
            let temp = 15.0 + mote as f64 + 0.25 * e as f64 + spike;
            (ts, vec![reading(ts, mote, temp)])
        })
        .collect()
}

fn processor(from: u64, to: u64) -> EspProcessor {
    let mut groups = ProximityGroups::new();
    for (granule, motes) in GROUPS {
        groups.add_group(ReceptorType::Mote, granule, motes.map(ReceptorId));
    }
    let smooth = TemporalGranule::with_window(
        TimeDelta::from_millis(PERIOD_MS),
        TimeDelta::from_millis(3 * PERIOD_MS),
    )
    .unwrap();
    let pipeline = Pipeline::builder()
        .per_receptor("smooth", move |_| {
            Ok(Box::new(SmoothStage::windowed_mean(
                "smooth",
                smooth,
                ["spatial_granule", "receptor_id"],
                "temp",
            )))
        })
        .per_group("merge", |ctx| {
            let granule = ctx
                .granule
                .clone()
                .ok_or_else(|| EspError::Config("merge stage needs a granule".into()))?;
            Ok(Box::new(MergeStage::outlier_filtered_mean(
                "merge",
                granule,
                TimeDelta::from_millis(PERIOD_MS),
                "temp",
                1.0,
            )))
        })
        .build();
    let receptors = GROUPS
        .iter()
        .flat_map(|(_, motes)| motes.iter())
        .map(|&mote| {
            let source = ScriptedSource::new(format!("mote-{mote}"), script(mote, from, to));
            ReceptorBinding::new(ReceptorId(mote), ReceptorType::Mote, Box::new(source))
        })
        .collect();
    EspProcessor::build(groups, &pipeline, receptors).unwrap()
}

fn step(proc: &mut EspProcessor, from: u64, to: u64) -> Vec<(Ts, Batch)> {
    for e in from..to {
        proc.step(Ts::from_millis(e * PERIOD_MS)).unwrap();
    }
    proc.take_output()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn checkpoint_layout_is_pinned_and_restores_mid_run() {
    let mut first = processor(0, SPLIT);
    let head = step(&mut first, 0, SPLIT);
    assert!(head.iter().any(|(_, b)| !b.is_empty()), "the run emits");
    let snapshot = first.snapshot_state().unwrap();
    assert_eq!(hex(&snapshot), PINNED_LAYOUT);

    let mut uninterrupted = processor(0, 2 * SPLIT);
    let whole = step(&mut uninterrupted, 0, 2 * SPLIT);
    assert_eq!(&whole[..SPLIT as usize], head.as_slice());

    // A fresh processor of the same shape resumes from the snapshot, its
    // sources holding only what arrives after it.
    let mut resumed = processor(SPLIT, 2 * SPLIT);
    resumed.restore_state(&snapshot).unwrap();
    let tail = step(&mut resumed, SPLIT, 2 * SPLIT);
    assert_eq!(tail.as_slice(), &whole[SPLIT as usize..]);
}

/// 17 nodes (4 sources, 4 granule injectors, 4 Smooth, per group a union
/// and a Merge, then a final union), with state at nodes 8–11 (Smooth)
/// and 13 and 15 (Merge).
const PINNED_LAYOUT: &str =
    "0000001100000006000000080000011902010100030000000f7370617469616c5f6772616e756c65030000000b72\
    65636570746f725f6964010000000474656d70020000000000000bb80000000300000000000007d0000000010002\
    04000000056e6f727468020000000000000001000000000000000140308000000000000000000000000000403080\
    000000000040308000000000000000000000000bb800000001000204000000056e6f727468020000000000000001\
    00000000000000014030c0000000000000000000000000004030c000000000004030c00000000000000000000000\
    138800000001000204000000056e6f72746802000000000000000100000000000000014031400000000000000000\
    000000000040314000000000004031400000000000000000090000011902010100030000000f7370617469616c5f\
    6772616e756c65030000000b7265636570746f725f6964010000000474656d70020000000000000bb80000000300\
    000000000007d000000001000204000000056e6f7274680200000000000000020000000000000001403180000000\
    00000000000000000000403180000000000040318000000000000000000000000fa000000001000204000000056e\
    6f727468020000000000000002000000000000000140588000000000000000000000000000405880000000000040\
    58800000000000000000000000138800000001000204000000056e6f727468020000000000000002000000000000\
    000140324000000000000000000000000000403240000000000040324000000000000000000a0000011902010100\
    030000000f7370617469616c5f6772616e756c65030000000b7265636570746f725f6964010000000474656d7002\
    0000000000000bb8000000030000000000000bb80000000100020400000005736f75746802000000000000000300\
    000000000000014032c0000000000000000000000000004032c000000000004032c000000000000000000000000f\
    a00000000100020400000005736f7574680200000000000000030000000000000001403300000000000000000000\
    000000004033000000000000403300000000000000000000000013880000000100020400000005736f7574680200\
    00000000000003000000000000000140334000000000000000000000000000403340000000000040334000000000\
    000000000b0000016202010100030000000f7370617469616c5f6772616e756c65030000000b7265636570746f72\
    5f6964010000000474656d70020000000000000bb80000000400000000000007d00000000100020400000005736f\
    75746802000000000000000400000000000000014033800000000000000000000000000040338000000000004033\
    8000000000000000000000000bb80000000100020400000005736f75746802000000000000000400000000000000\
    014033c0000000000000000000000000004033c000000000004033c000000000000000000000000fa00000000100\
    020400000005736f7574680200000000000000040000000000000001403400000000000000000000000000004034\
    000000000000403400000000000000000000000013880000000100020400000005736f7574680200000000000000\
    04000000000000000140344000000000000000000000000000403440000000000040344000000000000000000d00\
    0000ed00000000000003e800000000000013880000000000001388000100030000000f7370617469616c5f677261\
    6e756c65030000000b7265636570746f725f6964010000000474656d70020000000400000000000000000fa00400\
    0000056e6f72746802000000000000000103403080000000000000000000000000000fa004000000056e6f727468\
    0200000000000000020340462000000000000000000000000000138804000000056e6f7274680200000000000000\
    01034030d555555555550000000000000000138804000000056e6f7274680200000000000000020340464aaaaaaa\
    aaab00000000000000010000000f000000ed00000000000003e80000000000001388000000000000138800010003\
    0000000f7370617469616c5f6772616e756c65030000000b7265636570746f725f6964010000000474656d700200\
    00000400000000000000000fa00400000005736f757468020000000000000003034032aaaaaaaaaaab0000000000\
    0000000fa00400000005736f757468020000000000000004034033c0000000000000000000000000001388040000\
    0005736f757468020000000000000003034033000000000000000000000000000013880400000005736f75746802\
    0000000000000004034033e000000000000000000000000005";
