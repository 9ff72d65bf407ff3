//! Waiver markers and the stale-waiver audit.
//!
//! A finding is waived in place with a `// xtask-lint: allow(<rule>)`
//! comment on the offending line, or in a line comment alone on the line
//! above it (rustfmt moves a comment after a block's `{` into the block,
//! so a loop header is waived from above). Markers are read from comment
//! tokens only (a marker inside a string literal is inert), and the audit
//! fails any marker whose line no longer triggers its rule — suppressions
//! cannot outlive their reason.

use crate::engine::SourceFile;
use crate::lexer::TokenKind;

const MARKER: &str = "xtask-lint: allow(";

/// One waiver marker found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Waiver {
    pub rule: String,
    /// 1-based line the marker waives.
    pub line: usize,
}

/// Collects every well-formed waiver marker in the file. A marker whose
/// rule name is not a plain `kebab-case` word (e.g. the `<rule>`
/// placeholder in docs) is not a waiver at all.
pub(crate) fn waivers(file: &SourceFile<'_>) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in &file.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(file.src);
        let before = &file.src[..t.start];
        let own_line = t.kind == TokenKind::LineComment
            && before[before.rfind('\n').map_or(0, |i| i + 1)..]
                .trim()
                .is_empty();
        let mut rest = text;
        let mut consumed = 0usize;
        while let Some(at) = rest.find(MARKER) {
            let name_start = at + MARKER.len();
            let tail = &rest[name_start..];
            if let Some(end) = tail.find(')') {
                let rule = &tail[..end];
                if !rule.is_empty()
                    && rule
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    let offset = consumed + at;
                    let line =
                        t.line + text[..offset].matches('\n').count() + usize::from(own_line);
                    out.push(Waiver {
                        rule: rule.to_string(),
                        line,
                    });
                }
            }
            consumed += name_start;
            rest = tail;
        }
    }
    out
}
