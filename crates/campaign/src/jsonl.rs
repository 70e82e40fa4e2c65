//! The line rule and field helpers shared by this crate's JSONL readers:
//! the result store ([`crate::store::JsonlStore::open`]), the profiler
//! ([`crate::perf::summarize`]) and the trace reconstructor
//! ([`crate::trace::reconstruct`]).
//!
//! **A line is complete only once its `\n` is on disk.** Every writer
//! (the store's journal, the telemetry events journal) appends a whole
//! line and its newline in one write, so an unterminated final line is a
//! torn write — the tail of an append killed mid-way — even when its
//! bytes happen to parse as JSON. Readers drop it and report it as torn;
//! they never act on it.

use serde::Value;

/// The complete lines of JSONL `text` (each without its `\n`), and
/// whether an unterminated, non-empty final line was cut off as a torn
/// write (see the module docs).
pub(crate) fn complete_lines(text: &str) -> (std::str::SplitTerminator<'_, char>, bool) {
    let end = text.rfind('\n').map_or(0, |newline| newline + 1);
    (text[..end].split_terminator('\n'), end < text.len())
}

/// The string field `key` of a JSON object, if present and a string.
pub(crate) fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// The numeric field `key` of a JSON object as `f64`.
pub(crate) fn num_field(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Number(n)) => Some((*n).as_f64()),
        _ => None,
    }
}

/// The numeric field `key` of a JSON object, if it is a `u64`.
pub(crate) fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Number(n)) => (*n).as_u64(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unterminated_final_line_is_torn_even_when_it_parses() {
        let (lines, torn) = complete_lines("{\"a\":1}\n{\"b\":2}");
        assert_eq!(lines.collect::<Vec<_>>(), vec!["{\"a\":1}"]);
        assert!(torn);
    }

    #[test]
    fn terminated_text_has_no_torn_tail() {
        for text in ["", "x\n", "x\n\ny\n"] {
            let (lines, torn) = complete_lines(text);
            assert!(!torn, "{text:?}");
            assert_eq!(lines.count(), text.matches('\n').count(), "{text:?}");
        }
        let (lines, torn) = complete_lines("no newline at all");
        assert_eq!(lines.count(), 0);
        assert!(torn);
    }
}
