//! The single machine-readable catalog of every diagnostic code the
//! toolchain can emit, backing `esp-lint --explain <code>`.
//!
//! This table is the source of truth: the snapshot harness asserts that
//! every code emitted over the fixture corpus has an entry here, and a
//! unit test asserts that `DESIGN.md` documents every entry — so the
//! catalog, the emitters, and the prose cannot drift apart silently.

/// One catalog entry: the code, a one-line title, and the paragraph
/// `--explain` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The diagnostic code, e.g. `"E0601"`.
    pub code: &'static str,
    /// One-line summary (the table form used in DESIGN.md).
    pub title: &'static str,
    /// The longer explanation printed by `esp-lint --explain`.
    pub explanation: &'static str,
}

/// Every code the toolchain emits, sorted by code.
///
/// Retired codes are never reused for a new meaning: `E0407` (zero-capacity
/// queue) and `E0701`/`E0702`/`E0704` (runner-model deadlock, lost
/// shutdown wakeup, epoch-order violation) went with the thread-per-node
/// runner they described, and `E0401`–`E0406` (cycle, dangling output, no
/// taps, zero-input operator, fan-in mismatch, dangling edge) with the
/// graph checker that emitted them: an append-only `Dataflow` can
/// represent none of those defects. `E0804` (declarative stage cannot be
/// checkpointed) went when compiled queries gained a state form.
pub static CODES: &[CodeInfo] = &[
    CodeInfo {
        code: "E0001",
        title: "input does not parse",
        explanation: "The document could not be parsed at all — CQL with a byte-offset \
                      span pointing at the first offending token, JSON without one. \
                      Nothing else is checked until the parse succeeds.",
    },
    CodeInfo {
        code: "E0002",
        title: "malformed `-- lint:` directive",
        explanation: "A `-- lint:` comment exists but its body is not a valid stream, \
                      range, or epoch declaration. The directive is ignored for the \
                      rest of the run, which usually cascades into E0106/E0601 noise — \
                      fix the directive first.",
    },
    CodeInfo {
        code: "E0101",
        title: "unknown field for a known stream schema",
        explanation: "The query references a field that does not exist in the declared \
                      schema of the stream it resolves to. Either the field name is \
                      misspelled or the `-- lint: stream` declaration is stale.",
    },
    CodeInfo {
        code: "E0102",
        title: "field qualifier matches no FROM binding",
        explanation: "A qualified reference like `r.temp` uses a qualifier that is \
                      neither a stream name nor an alias bound in the FROM clause.",
    },
    CodeInfo {
        code: "E0103",
        title: "aggregate argument type mismatch",
        explanation: "An aggregate is applied to a field whose declared type it cannot \
                      consume — e.g. `sum` or `avg` over a string column.",
    },
    CodeInfo {
        code: "E0104",
        title: "arithmetic on a non-numeric operand",
        explanation: "An arithmetic operator (`+ - * / %`) has an operand whose \
                      declared type is not numeric. The engine would evaluate this to \
                      NULL on every tuple.",
    },
    CodeInfo {
        code: "E0105",
        title: "comparison between incomparable types",
        explanation: "A comparison mixes types with no defined ordering (e.g. a string \
                      against a number), making the predicate constant at runtime.",
    },
    CodeInfo {
        code: "E0106",
        title: "FROM references an undeclared stream",
        explanation: "The FROM clause names a stream with no `-- lint: stream` \
                      declaration, so nothing about its fields can be checked.",
    },
    CodeInfo {
        code: "E0201",
        title: "window narrower than the epoch/granule",
        explanation: "A window range (or deployment smoothing window) is narrower than \
                      the declared epoch or spatial granule, so some epochs contribute \
                      no tuples at all. The machine-applicable fix widens the window \
                      to exactly one epoch.",
    },
    CodeInfo {
        code: "E0202",
        title: "CQL window not a whole multiple of the epoch",
        explanation: "The window range does not divide evenly into the declared epoch, \
                      so window boundaries drift against epoch boundaries and \
                      per-epoch results become phase-dependent. The machine-applicable \
                      fix rounds the window up to the next epoch multiple.",
    },
    CodeInfo {
        code: "E0203",
        title: "deployment smoothing window not a multiple of the granule",
        explanation: "A deployment document declares a smoothing window that is not a \
                      whole multiple of its temporal granule; per-granule outputs \
                      would mix partially-covered windows.",
    },
    CodeInfo {
        code: "E0204",
        title: "unparseable time span",
        explanation: "A duration string in a deployment or durability document (e.g. \
                      `\"5 sec\"`) does not parse as a time span.",
    },
    CodeInfo {
        code: "E0301",
        title: "wired receptor belongs to no proximity group",
        explanation: "A receptor is wired into the pipeline but is not a member of any \
                      proximity group, so its readings can never be spatially \
                      aggregated.",
    },
    CodeInfo {
        code: "E0302",
        title: "proximity group has no members",
        explanation: "A declared proximity group contains zero receptors; its \
                      aggregation stage would never emit.",
    },
    CodeInfo {
        code: "E0303",
        title: "duplicate spatial granule",
        explanation: "Two proximity groups declare the same spatial granule, making \
                      group attribution of a reading ambiguous.",
    },
    CodeInfo {
        code: "E0304",
        title: "unknown receptor type",
        explanation: "The deployment references a receptor type with no registered \
                      schema.",
    },
    CodeInfo {
        code: "E0501",
        title: "accepted lateness ≥ smoothing window",
        explanation: "The gateway accepts readings later than the downstream smoothing \
                      window spans, so accepted-but-late readings land in windows that \
                      have already been emitted.",
    },
    CodeInfo {
        code: "E0502",
        title: "global-scope stage sharded across >1 shard",
        explanation: "A stage declared with global scope is deployed across more than \
                      one live gateway shard; each shard would compute a partial \
                      answer believing it is total.",
    },
    CodeInfo {
        code: "E0503",
        title: "degenerate gateway resources",
        explanation: "The gateway configuration is degenerate — zero shards, zero \
                      capacity, a zero reclamation period, or no proximity groups.",
    },
    CodeInfo {
        code: "E0601",
        title: "dead stage: predicate always false",
        explanation: "Interval analysis over the declared field ranges proves the \
                      WHERE/HAVING predicate can never hold, so the stage emits \
                      nothing. With `--witness`, the linter synthesizes in-range \
                      tuples and replays them through the engine to demonstrate the \
                      zero output (and downgrades the finding if the engine \
                      disagrees).",
    },
    CodeInfo {
        code: "E0602",
        title: "redundant filter: predicate always true",
        explanation: "Interval analysis proves the predicate holds for every in-range \
                      tuple, so the filter removes nothing. The machine-applicable \
                      fix deletes the clause; `--witness` replays sampled tuples to \
                      show the filtered and unfiltered runs emit identically.",
    },
    CodeInfo {
        code: "E0603",
        title: "divisor can be zero under declared ranges",
        explanation: "The declared range of a divisor contains zero (an error when it \
                      is provably exactly zero, a warning when it merely straddles \
                      it). The engine evaluates such divisions to NULL; `--witness` \
                      synthesizes a concrete zero-divisor tuple and shows that NULL \
                      emerge.",
    },
    CodeInfo {
        code: "E0604",
        title: "producer/consumer schema drift",
        explanation: "Across a dataflow edge the producer's output schema and the \
                      consumer's expectations disagree — a field the consumer reads \
                      is absent or retyped upstream.",
    },
    CodeInfo {
        code: "E0605",
        title: "granule-unit mismatch across a stage boundary",
        explanation: "A stage windows its input by a span that is not a whole multiple \
                      of the granule its upstream emits on, so the unit mismatch \
                      survives the boundary.",
    },
    CodeInfo {
        code: "E0703",
        title: "model checker: watermark regression",
        explanation: "The model found a schedule where the watermark moves backwards \
                      or a flush overtakes an in-contract reading.",
    },
    CodeInfo {
        code: "E0801",
        title: "checkpoint interval not epoch-aligned",
        explanation: "The durability contract's checkpoint interval is not a whole \
                      multiple of the epoch period, so checkpoints would cut epochs \
                      in half and recovery could replay partial epochs.",
    },
    CodeInfo {
        code: "E0802",
        title: "reclamation inside the lateness horizon",
        explanation: "WAL segments would be reclaimed while readings that are still \
                      inside the accepted-lateness horizon could arrive, making \
                      recovery lossy.",
    },
    CodeInfo {
        code: "E0803",
        title: "degenerate snapshot retention",
        explanation: "The durability contract retains zero snapshots per shard; the \
                      first reclamation would delete the only recovery point.",
    },
    CodeInfo {
        code: "E0901",
        title: "dead computed column",
        explanation: "Whole-pipeline liveness analysis found a computed column no \
                      downstream stage ever reads. The machine-applicable fix drops \
                      the column from the stage's select list.",
    },
    CodeInfo {
        code: "E0902",
        title: "distinctive fields dead before the cascade",
        explanation: "No distinctive field of a receptor group survives to the cascade \
                      entry, so the group's readings are indistinguishable \
                      downstream.",
    },
    CodeInfo {
        code: "E0903",
        title: "nondeterministic stage under a durable gateway",
        explanation: "Determinism-taint analysis found a stage whose output depends on \
                      volatile inputs (e.g. `now()`) inside a pipeline that is \
                      checkpointed and replayed; replay would diverge from the \
                      original run. With `--witness`, the linter runs the stage twice \
                      over identical input and shows the outputs differ.",
    },
    CodeInfo {
        code: "E0904",
        title: "lateness budget exceeded",
        explanation: "Worst-path lateness accumulated across the pipeline exceeds the \
                      accepted-lateness budget declared at the gateway.",
    },
    CodeInfo {
        code: "E0905",
        title: "unbounded or overcommitted grouping state",
        explanation: "A grouping key has no declared cardinality bound (state grows \
                      with the key's value universe), or the declared bounds \
                      overcommit the stage's memory budget. With `--witness`, the \
                      linter feeds the stage growing key populations and shows the \
                      retained group count growing with them.",
    },
];

/// Look up the catalog entry for `code`, if any.
pub fn explain(code: &str) -> Option<&'static CodeInfo> {
    CODES
        .binary_search_by(|info| info.code.cmp(code))
        .ok()
        .map(|i| &CODES[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for pair in CODES.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "catalog out of order at {}",
                pair[1].code
            );
        }
    }

    #[test]
    fn explain_finds_every_entry() {
        for info in CODES {
            assert_eq!(explain(info.code).map(|i| i.code), Some(info.code));
        }
        assert!(explain("E9999").is_none());
        assert!(explain("").is_none());
    }

    #[test]
    fn design_doc_documents_every_code() {
        let design = include_str!("../../../DESIGN.md");
        for info in CODES {
            assert!(
                design.contains(info.code),
                "DESIGN.md does not mention {}",
                info.code
            );
        }
    }

    #[test]
    fn catalog_has_all_known_families() {
        // One entry per code the emitters use; grow this list when a new
        // family lands.
        assert_eq!(CODES.len(), 33);
    }
}
