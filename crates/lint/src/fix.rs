//! Machine-applicable fixes: the span-based patcher behind
//! `esp-lint --fix`, plus the helpers that *construct* suggestions at
//! the analysis sites.
//!
//! A [`Suggestion`] is only attached where the repair is forced by the
//! analysis — removing a provably-always-true filter, aligning a window
//! to the declared epoch, dropping a computed column no stage reads.
//! Everything else (disabling durability, deleting a stage) is attached
//! as [`Applicability::MaybeIncorrect`] and never applied automatically.
//!
//! The patcher works on byte spans into the *original* document (CQL
//! text or JSON configuration alike — it never re-serializes, so
//! untouched bytes survive byte-for-byte). Its contract, enforced by the
//! idempotence tests over every fail fixture:
//!
//! 1. spans are clamped to char boundaries and sorted; overlapping
//!    suggestions are rejected (first wins, the rest are counted);
//! 2. applying all machine-applicable suggestions and re-linting yields
//!    a document with **zero** machine-applicable findings;
//! 3. a second `--fix` pass is a byte-for-byte no-op.

use esp_query::parse;
use esp_types::diag::floor_char_boundary;
use esp_types::{Applicability, Diagnostic, Span, Suggestion};

/// Result of one patch pass over a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixOutcome {
    /// The patched document.
    pub fixed: String,
    /// How many suggestions were applied.
    pub applied: usize,
    /// How many machine-applicable suggestions were skipped because
    /// their span overlapped an earlier (already accepted) one.
    pub skipped_overlapping: usize,
}

/// Apply every [`Applicability::MachineApplicable`] suggestion carried
/// by `diags` to `source`. Returns `None` when there is nothing to
/// apply; otherwise the patched text plus counts.
///
/// Suggestions are applied in one deterministic pass: sorted by span
/// start (the diagnostics themselves are already emitted in that order —
/// see [`esp_types::diag::sort_diagnostics`]), deduplicated, and checked
/// for overlap. Overlap is *rejected*, not merged: two analyses fighting
/// over the same bytes means neither fix is forced, so the first keeps
/// its claim and the rest are reported as skipped.
pub fn apply_fixes(source: &str, diags: &[Diagnostic]) -> Option<FixOutcome> {
    let mut suggestions: Vec<&Suggestion> = diags
        .iter()
        .flat_map(|d| d.suggestions.iter())
        .filter(|s| s.is_machine_applicable())
        .collect();
    if suggestions.is_empty() {
        return None;
    }
    suggestions.sort_by_key(|s| (s.span.start, s.span.end));
    suggestions.dedup_by(|a, b| {
        a.span.start == b.span.start && a.span.end == b.span.end && a.replacement == b.replacement
    });

    // Accept non-overlapping spans left to right.
    let mut accepted: Vec<(usize, usize, &str)> = Vec::new();
    let mut skipped = 0usize;
    for s in suggestions {
        let start = floor_char_boundary(source, s.span.start);
        let end = floor_char_boundary(source, s.span.end).max(start);
        match accepted.last() {
            Some(&(_, prev_end, _)) if start < prev_end => skipped += 1,
            _ => accepted.push((start, end, s.replacement.as_str())),
        }
    }

    // Patch right to left so earlier offsets stay valid.
    let mut fixed = source.to_string();
    for &(start, end, replacement) in accepted.iter().rev() {
        fixed.replace_range(start..end, replacement);
    }
    Some(FixOutcome {
        fixed,
        applied: accepted.len(),
        skipped_overlapping: skipped,
    })
}

/// Attach clause-removal suggestions to `E0602` findings (always-true
/// `WHERE`/`HAVING` predicates). The diagnostic's span covers the
/// predicate expression; the fix must also delete the introducing
/// keyword, which only the source text knows — scan backwards for it.
pub(crate) fn attach_cql_suggestions(source: &str, diags: &mut [Diagnostic]) {
    for d in diags.iter_mut() {
        if d.code != "E0602" {
            continue;
        }
        let Some(span) = d.span else { continue };
        let clause = if d.message.starts_with("HAVING") {
            "HAVING"
        } else {
            "WHERE"
        };
        let Some(kw_start) = keyword_before(source, span.start, clause) else {
            continue;
        };
        // Swallow the whitespace run before the keyword so the deletion
        // leaves no double space behind.
        let ws_start = source[..kw_start]
            .rfind(|c: char| !c.is_whitespace())
            .map(|i| i + 1)
            .unwrap_or(0);
        d.suggestions.push(Suggestion::new(
            format!("drop the always-true {clause} clause"),
            Span::new(ws_start, span.end),
            "",
            Applicability::MachineApplicable,
        ));
    }
}

/// Byte offset of the last whole-word, case-insensitive occurrence of
/// `word` strictly before `before` in `source`.
fn keyword_before(source: &str, before: usize, word: &str) -> Option<usize> {
    let hay = source
        .get(..floor_char_boundary(source, before))?
        .as_bytes();
    let needle = word.as_bytes();
    let boundary = |b: u8| !(b.is_ascii_alphanumeric() || b == b'_');
    let mut i = hay.len().checked_sub(needle.len())?;
    loop {
        let here = &hay[i..i + needle.len()];
        if here.eq_ignore_ascii_case(needle)
            && (i == 0 || boundary(hay[i - 1]))
            && (i + needle.len() == hay.len() || boundary(hay[i + needle.len()]))
        {
            return Some(i);
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// `E0901`: drop the dead computed column `col` from a declarative stage
/// query embedded in a JSON document. The repaired query is rebuilt from
/// the AST (pretty-print round-trips through the parser), and the
/// suggestion replaces the whole embedded query string so no JSON
/// escaping arithmetic is needed. `None` when the query text does not
/// appear verbatim in the document (escaped forms) or the removal would
/// empty the select list.
pub(crate) fn drop_column_suggestion(source: &str, query: &str, col: &str) -> Option<Suggestion> {
    let offset = source.find(query)?;
    let mut stmt = parse(query).ok()?;
    let before = stmt.select.len();
    stmt.select
        .retain(|item| item.alias.as_deref() != Some(col));
    if stmt.select.len() != before - 1 || stmt.select.is_empty() {
        return None;
    }
    let rebuilt = stmt.to_string();
    // The replacement lands inside a JSON string literal; the rebuilt
    // query must not need escaping there.
    if rebuilt.contains(['"', '\\', '\n']) {
        return None;
    }
    Some(Suggestion::new(
        format!("drop the dead computed column '{col}'"),
        Span::new(offset, offset + query.len()),
        rebuilt,
        Applicability::MachineApplicable,
    ))
}

/// `E0903`: a nondeterministic stage under a durable gateway. The two
/// defensible repairs (make the stage deterministic, or disable
/// durability) both change intent, so flag `"durable": true` as
/// [`Applicability::MaybeIncorrect`].
pub(crate) fn durable_false_suggestion(source: &str) -> Option<Suggestion> {
    let needle = "\"durable\": true";
    let offset = source.find(needle)?;
    Some(Suggestion::new(
        "disable durability for this gateway",
        Span::new(offset, offset + needle.len()),
        "\"durable\": false",
        Applicability::MaybeIncorrect,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(span: Span, replacement: &str) -> Diagnostic {
        Diagnostic::warning("E0602", "x").with_suggestion(Suggestion::new(
            "s",
            span,
            replacement,
            Applicability::MachineApplicable,
        ))
    }

    #[test]
    fn applies_spans_right_to_left() {
        let src = "abc def ghi";
        let diags = vec![ma(Span::new(0, 3), "X"), ma(Span::new(8, 11), "YZ")];
        let out = apply_fixes(src, &diags).expect("applies");
        assert_eq!(out.fixed, "X def YZ");
        assert_eq!(out.applied, 2);
        assert_eq!(out.skipped_overlapping, 0);
    }

    #[test]
    fn rejects_overlaps_first_wins() {
        let src = "abcdef";
        let diags = vec![ma(Span::new(0, 4), "X"), ma(Span::new(2, 6), "Y")];
        let out = apply_fixes(src, &diags).expect("applies");
        assert_eq!(out.fixed, "Xef");
        assert_eq!(out.applied, 1);
        assert_eq!(out.skipped_overlapping, 1);
    }

    #[test]
    fn dedups_identical_suggestions() {
        let src = "abcdef";
        let diags = vec![ma(Span::new(0, 3), "X"), ma(Span::new(0, 3), "X")];
        let out = apply_fixes(src, &diags).expect("applies");
        assert_eq!(out.fixed, "Xdef");
        assert_eq!(out.applied, 1);
        assert_eq!(out.skipped_overlapping, 0);
    }

    #[test]
    fn maybe_incorrect_is_never_applied() {
        let src = "abc";
        let diags = vec![
            Diagnostic::warning("E0903", "x").with_suggestion(Suggestion::new(
                "s",
                Span::new(0, 3),
                "Z",
                Applicability::MaybeIncorrect,
            )),
        ];
        assert!(apply_fixes(src, &diags).is_none());
    }

    #[test]
    fn spans_clamp_to_char_boundaries() {
        let src = "aµb"; // µ spans bytes 1..3
        let diags = vec![ma(Span::new(2, 3), "X")]; // start mid-µ
        let out = apply_fixes(src, &diags).expect("applies");
        // start clamps down to 1; the patch replaces the whole µ..
        assert_eq!(out.fixed, "aXb");
    }

    #[test]
    fn keyword_scan_is_word_and_case_insensitive() {
        let src = "SELECT anywhere FROM s where temp < 5";
        let pred = src.find("temp").unwrap();
        // "anywhere" must not match; the standalone lowercase "where" must.
        assert_eq!(
            keyword_before(src, pred, "WHERE"),
            Some(src.rfind("where").unwrap())
        );
        assert_eq!(keyword_before(src, pred, "HAVING"), None);
    }

    #[test]
    fn drop_column_rebuilds_query() {
        let doc =
            r#"{"query": "SELECT temp, count(*) AS n FROM s [Range By '5 sec'] GROUP BY temp"}"#;
        let query = "SELECT temp, count(*) AS n FROM s [Range By '5 sec'] GROUP BY temp";
        let s = drop_column_suggestion(doc, query, "n").expect("suggestion");
        assert!(s.is_machine_applicable());
        assert!(!s.replacement.contains("count"), "{}", s.replacement);
        assert_eq!(&doc[s.span.start..s.span.end], query);
        // Removing the only column refuses.
        let doc = r#"{"query": "SELECT count(*) AS n FROM s"}"#;
        assert!(drop_column_suggestion(doc, "SELECT count(*) AS n FROM s", "n").is_none());
    }
}
