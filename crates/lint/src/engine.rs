//! The token-tree view the rules run on: one parsed [`SourceFile`] per
//! input, with delimiter pairing, the significant-token
//! index (whitespace and comments skipped), and `#[cfg(test)]` masking by
//! actual item extent rather than by line heuristics.

use crate::lexer::{self, Delim, Token, TokenKind};

/// A lexed source file plus the derived structure the rules need.
pub(crate) struct SourceFile<'s> {
    /// Workspace-relative path with forward slashes.
    pub path: &'s str,
    pub src: &'s str,
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of significant tokens: everything except
    /// whitespace and comments.
    pub sig: Vec<usize>,
    /// For each token index: the token index of its partner delimiter, if
    /// this token is a properly paired `Open`/`Close`.
    pub partner: Vec<Option<usize>>,
    /// For each token index: true when the token belongs to a
    /// `#[cfg(test)]` item (attribute included).
    pub masked: Vec<bool>,
    /// For each token index of a significant token: its position in `sig`.
    sig_pos: Vec<usize>,
}

impl<'s> SourceFile<'s> {
    pub fn parse(path: &'s str, src: &'s str) -> Self {
        let tokens = lexer::lex(src);
        let mut sig = Vec::with_capacity(tokens.len());
        let mut sig_pos = vec![usize::MAX; tokens.len()];
        for (i, t) in tokens.iter().enumerate() {
            if !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            ) {
                sig_pos[i] = sig.len();
                sig.push(i);
            }
        }
        let partner = pair_delims(&tokens);
        let mut file = SourceFile {
            path,
            src,
            tokens,
            sig,
            partner,
            masked: Vec::new(),
            sig_pos,
        };
        file.masked = file.compute_mask();
        file
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Text of the `k`-th significant token ("" past the end).
    pub fn s(&self, k: usize) -> &'s str {
        match self.sig.get(k) {
            Some(&i) => self.tokens[i].text(self.src),
            None => "",
        }
    }

    /// Kind of the `k`-th significant token.
    pub fn kind(&self, k: usize) -> Option<TokenKind> {
        self.sig.get(k).map(|&i| self.tokens[i].kind)
    }

    /// 1-based line of the `k`-th significant token.
    pub fn line(&self, k: usize) -> usize {
        self.sig.get(k).map_or(0, |&i| self.tokens[i].line)
    }

    /// True when the `k`-th significant token is inside `#[cfg(test)]`.
    pub fn masked_at(&self, k: usize) -> bool {
        self.sig.get(k).is_some_and(|&i| self.masked[i])
    }

    /// For an `Open`/`Close` at significant index `k`: the significant
    /// index of its partner.
    pub fn partner_sig(&self, k: usize) -> Option<usize> {
        let i = *self.sig.get(k)?;
        let p = self.partner[i]?;
        let sp = self.sig_pos[p];
        (sp != usize::MAX).then_some(sp)
    }

    /// True when the significant tokens starting at `k` spell out `needle`
    /// (one atom per token, exact text match).
    pub fn seq_at(&self, k: usize, needle: &[&str]) -> bool {
        needle
            .iter()
            .enumerate()
            .all(|(j, atom)| self.s(k + j) == *atom)
    }

    /// Steps past the group opening at `k` (if `k` is an `Open`), returning
    /// the index after its `Close`; otherwise `k + 1`.
    pub fn skip_group(&self, k: usize) -> usize {
        match self.kind(k) {
            Some(TokenKind::Open(_)) => match self.partner_sig(k) {
                Some(close) => close + 1,
                None => self.len(), // unbalanced: stop scanning
            },
            _ => k + 1,
        }
    }

    /// Marks every token of every `#[cfg(test)]` item: the attribute, any
    /// further attributes, and the item through its `;` or matched body.
    fn compute_mask(&self) -> Vec<bool> {
        let mut masked = vec![false; self.tokens.len()];
        let mut k = 0;
        while k < self.len() {
            if !self.is_cfg_test_attr(k) {
                k += 1;
                continue;
            }
            let start = k;
            // Past this attribute, then any stacked attributes.
            let mut j = self.skip_attr(k);
            while self.s(j) == "#" && matches!(self.kind(j + 1), Some(TokenKind::Open(_))) {
                j = self.skip_attr(j);
            }
            // The item extends to the first `;` at this level (bodyless
            // item) or through the first brace group at this level.
            let mut end = j;
            loop {
                match self.kind(end) {
                    None => {
                        end = self.len().saturating_sub(1);
                        break;
                    }
                    Some(TokenKind::Open(Delim::Brace)) => {
                        end = self.partner_sig(end).unwrap_or(self.len() - 1);
                        break;
                    }
                    Some(TokenKind::Open(_)) => end = self.skip_group(end),
                    _ if self.s(end) == ";" => break,
                    _ => end += 1,
                }
            }
            for kk in start..=end.min(self.len().saturating_sub(1)) {
                masked[self.sig[kk]] = true;
            }
            k = end + 1;
        }
        masked
    }

    /// True when significant index `k` starts `#[cfg(test)]` (attribute
    /// contents exactly `cfg ( test )`).
    fn is_cfg_test_attr(&self, k: usize) -> bool {
        self.s(k) == "#"
            && matches!(self.kind(k + 1), Some(TokenKind::Open(Delim::Bracket)))
            && self.seq_at(k + 2, &["cfg", "(", "test", ")"])
            && self.partner_sig(k + 1) == Some(k + 6)
    }

    /// Steps past an attribute starting at `k` (`#` + bracket group).
    fn skip_attr(&self, k: usize) -> usize {
        self.skip_group(k + 1)
    }
}

/// Pairs delimiters with a stack. Mismatched closers are left unpaired.
fn pair_delims(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut partner = vec![None; tokens.len()];
    let mut stack: Vec<(usize, Delim)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Open(d) => stack.push((i, d)),
            TokenKind::Close(d) => {
                if let Some(&(open, od)) = stack.last() {
                    if od == d {
                        stack.pop();
                        partner[open] = Some(i);
                        partner[i] = Some(open);
                    }
                }
            }
            _ => {}
        }
    }
    partner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_masks_whole_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let masked_of = |name: &str| {
            let k = (0..f.len()).find(|&k| f.s(k) == name).unwrap();
            f.masked_at(k)
        };
        assert!(!masked_of("live"));
        assert!(masked_of("tests"));
        assert!(masked_of("t"));
        assert!(!masked_of("after"));
    }

    #[test]
    fn cfg_test_masks_single_item_and_bodyless_item() {
        let src = "#[cfg(test)]\nfn helper() { body(); }\nfn live() {}\n\
                   #[cfg(test)]\nmod tests;\nfn also_live() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let masked_of = |name: &str| {
            let k = (0..f.len()).find(|&k| f.s(k) == name).unwrap();
            f.masked_at(k)
        };
        assert!(masked_of("helper"));
        assert!(masked_of("body"));
        assert!(!masked_of("live"));
        assert!(masked_of("tests"));
        assert!(!masked_of("also_live"));
    }

    #[test]
    fn stacked_attributes_stay_with_the_item() {
        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct Shadow { x: u32 }\nstruct Real;\n";
        let f = SourceFile::parse("x.rs", src);
        let masked_of = |name: &str| {
            let k = (0..f.len()).find(|&k| f.s(k) == name).unwrap();
            f.masked_at(k)
        };
        assert!(masked_of("Shadow"));
        assert!(!masked_of("Real"));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(feature = \"x\")]\nfn gated() { x.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let k = (0..f.len()).find(|&k| f.s(k) == "unwrap").unwrap();
        assert!(!f.masked_at(k));
    }

    #[test]
    fn partner_pairs_groups() {
        let src = "f(a, g(b), c); { h[0]; }";
        let f = SourceFile::parse("x.rs", src);
        let at = |text: &str| (0..f.len()).find(|&k| f.s(k) == text).unwrap();
        let open = at("(");
        let close = f.partner_sig(open).unwrap();
        assert_eq!(f.s(close), ")");
        assert_eq!(f.s(close - 1), "c");
        assert_eq!(f.skip_group(at("[")), at("]") + 1);
    }
}
