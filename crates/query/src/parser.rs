//! Textual query syntax.
//!
//! ```text
//! query := node
//! node  := LABEL child*
//! child := '(' axis? node ')'
//! axis  := '//' | '/'          (default '/')
//! LABEL := [^()/ \t\n]+
//! ```
//!
//! Examples: `NN`, `NP(DT)(NN)`, `S(NP(NNS(agouti)))(VP(//NN))`.
//! `A//B/C` from the paper's §3 would be written `A(//B)(/C)`; the
//! bracketed form generalizes to arbitrary tree shapes.

use si_parsetree::LabelInterner;

use crate::model::{Axis, QNodeId, Query, QueryBuilder};

/// Deepest query tree [`parse_query`] accepts, counted in nodes from the
/// root. Parsing, decomposition and matching all recurse once per level,
/// so an unbounded depth lets one hostile line overflow the stack. No
/// generated or benchmark query comes near this.
pub const MAX_QUERY_DEPTH: usize = 256;

/// Errors from [`parse_query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryParseError {
    /// Input ended while a bracket was open.
    UnexpectedEof,
    /// Unexpected character at byte offset.
    Unexpected(usize, char),
    /// A label was required at byte offset.
    MissingLabel(usize),
    /// Trailing input after the query tree.
    Trailing(usize),
    /// The node starting at this byte offset nests deeper than
    /// [`MAX_QUERY_DEPTH`].
    TooDeep(usize),
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryParseError::UnexpectedEof => write!(f, "unexpected end of query"),
            QueryParseError::Unexpected(pos, c) => {
                write!(f, "unexpected character {c:?} at byte {pos}")
            }
            QueryParseError::MissingLabel(pos) => write!(f, "expected a label at byte {pos}"),
            QueryParseError::Trailing(pos) => write!(f, "trailing input at byte {pos}"),
            QueryParseError::TooDeep(pos) => write!(
                f,
                "query nests deeper than {MAX_QUERY_DEPTH} levels at byte {pos}"
            ),
        }
    }
}

impl std::error::Error for QueryParseError {}

/// Parses the textual query syntax, interning labels into `interner`.
pub fn parse_query(input: &str, interner: &mut LabelInterner) -> Result<Query, QueryParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let mut b = QueryBuilder::new();
    p.skip_ws();
    p.node(Axis::Child, &mut b, interner)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(QueryParseError::Trailing(p.pos));
    }
    b.finish().ok_or(QueryParseError::UnexpectedEof)
}

/// Renders `query` in the syntax accepted by [`parse_query`].
pub fn write_query(query: &Query, interner: &LabelInterner) -> String {
    let mut out = String::new();
    write_node(query, query.root(), interner, &mut out);
    out
}

fn write_node(query: &Query, n: QNodeId, interner: &LabelInterner, out: &mut String) {
    out.push_str(interner.resolve(query.label(n)));
    for c in query.children(n) {
        out.push('(');
        if query.axis(c) == Axis::Descendant {
            out.push_str("//");
        }
        write_node(query, c, interner, out);
        out.push(')');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Nodes open on the recursion stack, the one being parsed included.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn label(&mut self) -> Option<&str> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'(' || b == b')' || b == b'/' || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        (self.pos > start).then(|| std::str::from_utf8(&self.bytes[start..self.pos]).unwrap())
    }

    fn node(
        &mut self,
        axis: Axis,
        b: &mut QueryBuilder,
        interner: &mut LabelInterner,
    ) -> Result<(), QueryParseError> {
        self.skip_ws();
        if self.depth == MAX_QUERY_DEPTH {
            return Err(QueryParseError::TooDeep(self.pos));
        }
        self.depth += 1;
        let label = self
            .label()
            .map(|t| interner.intern(t))
            .ok_or(QueryParseError::MissingLabel(self.pos))?;
        b.open(label, axis);
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'(') => {
                    self.pos += 1;
                    self.skip_ws();
                    let mut child_axis = Axis::Child;
                    if self.bytes.get(self.pos) == Some(&b'/') {
                        self.pos += 1;
                        if self.bytes.get(self.pos) == Some(&b'/') {
                            self.pos += 1;
                            child_axis = Axis::Descendant;
                        }
                    }
                    self.node(child_axis, b, interner)?;
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b')') => self.pos += 1,
                        Some(&c) => return Err(QueryParseError::Unexpected(self.pos, c as char)),
                        None => return Err(QueryParseError::UnexpectedEof),
                    }
                }
                _ => {
                    b.close();
                    self.depth -= 1;
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_label() {
        let mut li = LabelInterner::new();
        let q = parse_query("NN", &mut li).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(write_query(&q, &li), "NN");
    }

    #[test]
    fn nested_with_axes() {
        let mut li = LabelInterner::new();
        let src = "S(NP(NNS(agouti)))(VP(//NN))";
        let q = parse_query(src, &mut li).unwrap();
        assert_eq!(q.len(), 6);
        assert_eq!(write_query(&q, &li), src);
        let kids: Vec<_> = q.children(q.root()).collect();
        assert_eq!(q.axis(kids[0]), Axis::Child);
        let vp = kids[1];
        let nn = q.children(vp).next().unwrap();
        assert_eq!(q.axis(nn), Axis::Descendant);
    }

    #[test]
    fn explicit_child_axis() {
        let mut li = LabelInterner::new();
        let q = parse_query("A(/B)(//C)", &mut li).unwrap();
        let kids: Vec<_> = q.children(q.root()).collect();
        assert_eq!(q.axis(kids[0]), Axis::Child);
        assert_eq!(q.axis(kids[1]), Axis::Descendant);
        assert_eq!(write_query(&q, &li), "A(B)(//C)");
    }

    #[test]
    fn whitespace_tolerated() {
        let mut li = LabelInterner::new();
        let q = parse_query("  A ( B )  ( // C ) ", &mut li).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn round_trip_random_shapes() {
        let mut li = LabelInterner::new();
        for src in [
            "A",
            "A(B)",
            "A(B)(C)",
            "A(B(C)(D))(E)",
            "A(//B(C))(D(//E))",
            "NP(NN)(NN)",
        ] {
            let q = parse_query(src, &mut li).unwrap();
            assert_eq!(write_query(&q, &li), src, "round trip of {src}");
        }
    }

    #[test]
    fn errors() {
        let mut li = LabelInterner::new();
        assert_eq!(
            parse_query("", &mut li),
            Err(QueryParseError::MissingLabel(0))
        );
        assert!(matches!(
            parse_query("A(B", &mut li),
            Err(QueryParseError::UnexpectedEof)
        ));
        assert!(matches!(
            parse_query("A)B", &mut li),
            Err(QueryParseError::Trailing(_))
        ));
        assert!(matches!(
            parse_query("A(()", &mut li),
            Err(QueryParseError::MissingLabel(_))
        ));
        assert!(matches!(
            parse_query("A(B))", &mut li),
            Err(QueryParseError::Trailing(_))
        ));
        // A chain of exactly MAX_QUERY_DEPTH nodes parses; one more
        // level is rejected at the offending node, not by the stack.
        let chain = |depth: usize| "A(".repeat(depth - 1) + "A" + &")".repeat(depth - 1);
        assert_eq!(
            parse_query(&chain(MAX_QUERY_DEPTH), &mut li).unwrap().len(),
            MAX_QUERY_DEPTH
        );
        assert_eq!(
            parse_query(&chain(MAX_QUERY_DEPTH + 1), &mut li),
            Err(QueryParseError::TooDeep(2 * MAX_QUERY_DEPTH))
        );
        assert!(matches!(
            parse_query(&chain(3000), &mut li),
            Err(QueryParseError::TooDeep(_))
        ));
    }
}
