//! A parser for the concrete KOLA syntax (see [`crate::display`] for the
//! operator table).
//!
//! The parser produces *patterns* ([`PFunc`], [`PPred`], [`PQuery`]) —
//! metavariables are written `$f` (function), `%p` (predicate) and `^x`
//! (object). The convenience entry points [`parse_func`], [`parse_pred`]
//! and [`parse_query`] additionally require the result to be variable-free
//! and return concrete terms. [`parse_query_into`] builds a concrete query
//! straight into an [`Interner`], with no tree in between.
//!
//! Reserved words: `id pi1 pi2 flat sunion sinter sdiff Kf Cf con iterate
//! iter join nest unnest eq lt leq gt geq in Kp Cp T F union intersect
//! diff`. Any other identifier is a schema primitive (in function or
//! predicate position) or an extent (in query position).
//!
//! Round-tripping: `parse_pfunc(t.to_string()) == t` for every function and
//! predicate. Query literals containing pairs or sets re-parse as
//! query-level pair/set constructions (`[1, 2]` parses as
//! `PairQ(Lit 1, Lit 2)`, not `Lit [1,2]`), which is evaluation-equivalent.
//!
//! ## One grammar, two builders
//!
//! The grammar is deterministic recursive descent over borrowed tokens:
//! identifiers and strings are slices of the source, and an error message
//! is formatted only when the parse fails. The one choice a query makes —
//! `f ! q`, `p ? q`, or an atom — is read off the first `!` or `?` at
//! bracket depth 0 before anything that can follow a whole query (`,`, a
//! closing bracket, `union`/`intersect`/`diff`, the end). A function or a
//! predicate never holds one of those tokens at depth 0, and an atom
//! followed by anything but them cannot complete a parse, so that token
//! names the only production that can succeed. The lexer records each
//! opening bracket's partner, so the look-ahead steps over a bracketed
//! group in one move and a parse stays linear in its tokens.
//!
//! The grammar hands each node to a builder, children first. The tree
//! builder makes the pattern trees every `parse_*` entry point returns.
//! The arena builder makes hash-consed nodes: it builds `∘`-chains
//! right-associated with [`icompose`] (the form [`Query::normalize`]
//! gives), folds `[x, y]` of two literals into one literal exactly as the
//! tree builder does, and rejects metavariables.

use crate::intern::{icompose, ITerm, Interner, Payload, PayloadRef, Tag};
use crate::pattern::{PFunc, PPred, PQuery};
use crate::term::{Func, Pred, Query};
use crate::value::{Value, ValueSet};
use std::fmt;
use std::sync::Arc;

/// A lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy)]
enum Tok<'s> {
    /// Identifier or keyword.
    Ident(&'s str),
    /// Integer literal.
    Int(i64),
    /// String literal (without quotes).
    Str(&'s str),
    /// `(`, `[` or `{`, with the index of its matching closer
    /// ([`UNCLOSED`] if there is none).
    Open(u8, usize),
    /// `)`, `]` or `}`.
    Close(u8),
    /// One of `! ? , . * & | ~ @ $ % ^`.
    Punct(u8),
}

/// The partner index of an opening bracket that is never closed.
const UNCLOSED: usize = usize::MAX;

/// The deepest nesting a text may have: each atom (so each bracket), each
/// `~`, and each operator of a `.`, `|`, `&`, `!`, `?`, `*`, `@` or
/// set-operator chain opens a level (see [`Grammar::nested`]). Levels
/// bound both the grammar's recursion and the depth of the tree it
/// builds, which every later walk recurses over, so deeper text is
/// rejected as a parse error before either runs: a 64 KiB request of
/// nothing but brackets or `~` would otherwise overflow a thread's stack.
const MAX_NESTING: usize = 1024;

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Open(c, _) | Tok::Close(c) | Tok::Punct(c) => write!(f, "{}", *c as char),
        }
    }
}

/// A parse error with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub msg: String,
    /// Approximate token index where it went wrong.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Tokenize a source string, pairing every bracket with its partner.
///
/// The unclosed openers form a stack threaded through the tokens
/// themselves: until its closer arrives, an opener's partner slot holds
/// the index of the opener enclosing it, and `top` is the innermost. So
/// pairing needs no buffer beyond the token vector.
fn lex(src: &str) -> PResult<Vec<Tok<'_>>> {
    let bytes = src.as_bytes();
    let mut out: Vec<Tok<'_>> = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut top = UNCLOSED;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let tok = match c {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'!' | b'?' | b',' | b'.' | b'*' | b'&' | b'|' | b'~' | b'@' | b'$' | b'%' | b'^' => {
                i += 1;
                Tok::Punct(c)
            }
            b'(' | b'[' | b'{' => {
                let enclosing = top;
                top = out.len();
                i += 1;
                Tok::Open(c, enclosing)
            }
            b')' | b']' | b'}' => {
                let here = out.len();
                if let Some(Tok::Open(_, slot)) = out.get_mut(top) {
                    top = std::mem::replace(slot, here);
                }
                i += 1;
                Tok::Close(c)
            }
            b'"' => {
                let start = i + 1;
                let Some(len) = bytes[start..].iter().position(|&b| b == b'"') else {
                    return Err(ParseError {
                        msg: "unterminated string literal".into(),
                        at: out.len(),
                    });
                };
                i = start + len + 1;
                Tok::Str(&src[start..start + len])
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                Tok::Int(text.parse::<i64>().map_err(|_| ParseError {
                    msg: format!("bad integer literal {text:?}"),
                    at: out.len(),
                })?)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                Tok::Ident(&src[start..i])
            }
            other => {
                return Err(ParseError {
                    msg: format!("unexpected character {:?}", other as char),
                    at: out.len(),
                })
            }
        };
        out.push(tok);
    }
    while let Some(Tok::Open(_, slot)) = out.get_mut(top) {
        top = std::mem::replace(slot, UNCLOSED);
    }
    Ok(out)
}

const PRED_KEYWORDS: &[&str] = &["eq", "lt", "leq", "gt", "geq", "in", "Kp", "Cp", "inv"];
const FUNC_KEYWORDS: &[&str] = &[
    "id", "pi1", "pi2", "flat", "sunion", "sinter", "sdiff", "Kf", "Cf", "con", "iterate", "iter",
    "join", "nest", "unnest", "bagify", "dedup", "biterate", "bunion", "bflat",
];
const QUERY_KEYWORDS: &[&str] = &["union", "intersect", "diff", "T", "F"];

/// Nullary function keywords.
const FUNC_LEAVES: &[(&str, Tag)] = &[
    ("id", Tag::FId),
    ("pi1", Tag::FPi1),
    ("pi2", Tag::FPi2),
    ("flat", Tag::FFlat),
    ("sunion", Tag::FSetUnion),
    ("bagify", Tag::FBagify),
    ("dedup", Tag::FDedup),
    ("bunion", Tag::FBUnion),
    ("bflat", Tag::FBFlat),
    ("sinter", Tag::FSetIntersect),
    ("sdiff", Tag::FSetDiff),
];

/// Nullary predicate keywords.
const PRED_LEAVES: &[(&str, Tag)] = &[
    ("eq", Tag::PEq),
    ("lt", Tag::PLt),
    ("leq", Tag::PLeq),
    ("gt", Tag::PGt),
    ("geq", Tag::PGeq),
    ("in", Tag::PIn),
];

fn keyword(table: &[(&str, Tag)], name: &str) -> Option<Tag> {
    table.iter().find(|(k, _)| *k == name).map(|&(_, t)| t)
}

/// What the grammar builds: one output type per level, one call per node,
/// children before parents. Tags name the constructor (`Tag::FPrim` for a
/// schema primitive, whose name is `sym`).
trait Build {
    type F;
    type P;
    type Q;
    /// A metavariable, or `None` where the output admits none.
    fn var_f(&mut self, name: &str) -> Option<Self::F>;
    fn var_p(&mut self, name: &str) -> Option<Self::P>;
    fn var_q(&mut self, name: &str) -> Option<Self::Q>;
    fn func0(&mut self, tag: Tag, sym: &str) -> Self::F;
    /// `∘`, pairing, `×`, `nest`, `unnest`.
    fn func2(&mut self, tag: Tag, a: Self::F, b: Self::F) -> Self::F;
    /// `iterate`, `iter`, `join`, `biterate`.
    fn former(&mut self, tag: Tag, p: Self::P, f: Self::F) -> Self::F;
    fn const_f(&mut self, q: Self::Q) -> Self::F;
    fn curry_f(&mut self, f: Self::F, q: Self::Q) -> Self::F;
    fn cond(&mut self, p: Self::P, f: Self::F, g: Self::F) -> Self::F;
    fn pred0(&mut self, tag: Tag, sym: &str) -> Self::P;
    fn const_p(&mut self, b: bool) -> Self::P;
    fn oplus(&mut self, p: Self::P, f: Self::F) -> Self::P;
    /// `~` and `inv`.
    fn pred1(&mut self, tag: Tag, p: Self::P) -> Self::P;
    /// `&` and `|`.
    fn pred2(&mut self, tag: Tag, a: Self::P, b: Self::P) -> Self::P;
    fn curry_p(&mut self, p: Self::P, q: Self::Q) -> Self::P;
    fn lit(&mut self, v: Value) -> Self::Q;
    fn extent(&mut self, name: &str) -> Self::Q;
    /// `[a, b]`; a pair of two literals is one literal.
    fn pair_q(&mut self, a: Self::Q, b: Self::Q) -> Self::Q;
    /// `union`, `intersect`, `diff`.
    fn query2(&mut self, tag: Tag, a: Self::Q, b: Self::Q) -> Self::Q;
    fn app(&mut self, f: Self::F, q: Self::Q) -> Self::Q;
    fn test(&mut self, p: Self::P, q: Self::Q) -> Self::Q;
}

/// Builds pattern trees.
struct Trees;

impl Build for Trees {
    type F = PFunc;
    type P = PPred;
    type Q = PQuery;

    fn var_f(&mut self, name: &str) -> Option<PFunc> {
        Some(PFunc::Var(Arc::from(name)))
    }
    fn var_p(&mut self, name: &str) -> Option<PPred> {
        Some(PPred::Var(Arc::from(name)))
    }
    fn var_q(&mut self, name: &str) -> Option<PQuery> {
        Some(PQuery::Var(Arc::from(name)))
    }
    fn func0(&mut self, tag: Tag, sym: &str) -> PFunc {
        match tag {
            Tag::FPrim => PFunc::Prim(Arc::from(sym)),
            Tag::FId => PFunc::Id,
            Tag::FPi1 => PFunc::Pi1,
            Tag::FPi2 => PFunc::Pi2,
            Tag::FFlat => PFunc::Flat,
            Tag::FSetUnion => PFunc::SetUnion,
            Tag::FBagify => PFunc::Bagify,
            Tag::FDedup => PFunc::Dedup,
            Tag::FBUnion => PFunc::BUnion,
            Tag::FBFlat => PFunc::BFlat,
            Tag::FSetIntersect => PFunc::SetIntersect,
            Tag::FSetDiff => PFunc::SetDiff,
            _ => unreachable!("{tag:?} is not a nullary function"),
        }
    }
    fn func2(&mut self, tag: Tag, a: PFunc, b: PFunc) -> PFunc {
        let (a, b) = (Box::new(a), Box::new(b));
        match tag {
            Tag::FCompose => PFunc::Compose(a, b),
            Tag::FPairWith => PFunc::PairWith(a, b),
            Tag::FTimes => PFunc::Times(a, b),
            Tag::FNest => PFunc::Nest(a, b),
            Tag::FUnnest => PFunc::Unnest(a, b),
            _ => unreachable!("{tag:?} is not a binary function former"),
        }
    }
    fn former(&mut self, tag: Tag, p: PPred, f: PFunc) -> PFunc {
        let (p, f) = (Box::new(p), Box::new(f));
        match tag {
            Tag::FIterate => PFunc::Iterate(p, f),
            Tag::FIter => PFunc::Iter(p, f),
            Tag::FJoin => PFunc::Join(p, f),
            Tag::FBIterate => PFunc::BIterate(p, f),
            _ => unreachable!("{tag:?} is not a predicate-function former"),
        }
    }
    fn const_f(&mut self, q: PQuery) -> PFunc {
        PFunc::ConstF(Box::new(q))
    }
    fn curry_f(&mut self, f: PFunc, q: PQuery) -> PFunc {
        PFunc::CurryF(Box::new(f), Box::new(q))
    }
    fn cond(&mut self, p: PPred, f: PFunc, g: PFunc) -> PFunc {
        PFunc::Cond(Box::new(p), Box::new(f), Box::new(g))
    }
    fn pred0(&mut self, tag: Tag, sym: &str) -> PPred {
        match tag {
            Tag::PPrimP => PPred::PrimP(Arc::from(sym)),
            Tag::PEq => PPred::Eq,
            Tag::PLt => PPred::Lt,
            Tag::PLeq => PPred::Leq,
            Tag::PGt => PPred::Gt,
            Tag::PGeq => PPred::Geq,
            Tag::PIn => PPred::In,
            _ => unreachable!("{tag:?} is not a nullary predicate"),
        }
    }
    fn const_p(&mut self, b: bool) -> PPred {
        PPred::ConstP(b)
    }
    fn oplus(&mut self, p: PPred, f: PFunc) -> PPred {
        PPred::Oplus(Box::new(p), Box::new(f))
    }
    fn pred1(&mut self, tag: Tag, p: PPred) -> PPred {
        match tag {
            Tag::PNot => PPred::Not(Box::new(p)),
            _ => PPred::Conv(Box::new(p)),
        }
    }
    fn pred2(&mut self, tag: Tag, a: PPred, b: PPred) -> PPred {
        match tag {
            Tag::PAnd => PPred::And(Box::new(a), Box::new(b)),
            _ => PPred::Or(Box::new(a), Box::new(b)),
        }
    }
    fn curry_p(&mut self, p: PPred, q: PQuery) -> PPred {
        PPred::CurryP(Box::new(p), Box::new(q))
    }
    fn lit(&mut self, v: Value) -> PQuery {
        PQuery::Lit(v)
    }
    fn extent(&mut self, name: &str) -> PQuery {
        PQuery::Extent(Arc::from(name))
    }
    fn pair_q(&mut self, a: PQuery, b: PQuery) -> PQuery {
        // Canonicalize literal pairs so printing round-trips: the display
        // of Lit([x, y]) is "[x, y]".
        match (a, b) {
            (PQuery::Lit(x), PQuery::Lit(y)) => PQuery::Lit(Value::pair(x, y)),
            (a, b) => PQuery::PairQ(Box::new(a), Box::new(b)),
        }
    }
    fn query2(&mut self, tag: Tag, a: PQuery, b: PQuery) -> PQuery {
        let (a, b) = (Box::new(a), Box::new(b));
        match tag {
            Tag::QUnion => PQuery::Union(a, b),
            Tag::QIntersect => PQuery::Intersect(a, b),
            _ => PQuery::Diff(a, b),
        }
    }
    fn app(&mut self, f: PFunc, q: PQuery) -> PQuery {
        PQuery::App(f, Box::new(q))
    }
    fn test(&mut self, p: PPred, q: PQuery) -> PQuery {
        PQuery::Test(p, Box::new(q))
    }
}

/// Builds hash-consed nodes in an arena: every node is looked up from
/// borrowed parts, so only a node the arena lacks allocates.
struct Arena<'a>(&'a mut Interner);

impl Arena<'_> {
    fn node(&mut self, tag: Tag, kids: &[ITerm]) -> ITerm {
        self.0.mk(tag, PayloadRef::None, kids)
    }
}

impl Build for Arena<'_> {
    type F = ITerm;
    type P = ITerm;
    type Q = ITerm;

    fn var_f(&mut self, _: &str) -> Option<ITerm> {
        None
    }
    fn var_p(&mut self, _: &str) -> Option<ITerm> {
        None
    }
    fn var_q(&mut self, _: &str) -> Option<ITerm> {
        None
    }
    fn func0(&mut self, tag: Tag, sym: &str) -> ITerm {
        match tag {
            Tag::FPrim => self.0.mk(tag, PayloadRef::Sym(sym), &[]),
            _ => self.node(tag, &[]),
        }
    }
    fn func2(&mut self, tag: Tag, a: ITerm, b: ITerm) -> ITerm {
        match tag {
            Tag::FCompose => icompose(self.0, a, b),
            _ => self.node(tag, &[a, b]),
        }
    }
    fn former(&mut self, tag: Tag, p: ITerm, f: ITerm) -> ITerm {
        self.node(tag, &[p, f])
    }
    fn const_f(&mut self, q: ITerm) -> ITerm {
        self.node(Tag::FConstF, &[q])
    }
    fn curry_f(&mut self, f: ITerm, q: ITerm) -> ITerm {
        self.node(Tag::FCurryF, &[f, q])
    }
    fn cond(&mut self, p: ITerm, f: ITerm, g: ITerm) -> ITerm {
        self.node(Tag::FCond, &[p, f, g])
    }
    fn pred0(&mut self, tag: Tag, sym: &str) -> ITerm {
        match tag {
            Tag::PPrimP => self.0.mk(tag, PayloadRef::Sym(sym), &[]),
            _ => self.node(tag, &[]),
        }
    }
    fn const_p(&mut self, b: bool) -> ITerm {
        self.0.mk(Tag::PConstP, PayloadRef::Bool(b), &[])
    }
    fn oplus(&mut self, p: ITerm, f: ITerm) -> ITerm {
        self.node(Tag::POplus, &[p, f])
    }
    fn pred1(&mut self, tag: Tag, p: ITerm) -> ITerm {
        self.node(tag, &[p])
    }
    fn pred2(&mut self, tag: Tag, a: ITerm, b: ITerm) -> ITerm {
        self.node(tag, &[a, b])
    }
    fn curry_p(&mut self, p: ITerm, q: ITerm) -> ITerm {
        self.node(Tag::PCurryP, &[p, q])
    }
    fn lit(&mut self, v: Value) -> ITerm {
        self.0.mk(Tag::QLit, PayloadRef::Value(&v), &[])
    }
    fn extent(&mut self, name: &str) -> ITerm {
        self.0.mk(Tag::QExtent, PayloadRef::Sym(name), &[])
    }
    fn pair_q(&mut self, a: ITerm, b: ITerm) -> ITerm {
        match (a.payload(), b.payload()) {
            (Payload::Value(x), Payload::Value(y)) => {
                self.lit(Value::pair((**x).clone(), (**y).clone()))
            }
            _ => self.node(Tag::QPairQ, &[a, b]),
        }
    }
    fn query2(&mut self, tag: Tag, a: ITerm, b: ITerm) -> ITerm {
        self.node(tag, &[a, b])
    }
    fn app(&mut self, f: ITerm, q: ITerm) -> ITerm {
        self.node(Tag::QApp, &[f, q])
    }
    fn test(&mut self, p: ITerm, q: ITerm) -> ITerm {
        self.node(Tag::QTest, &[p, q])
    }
}

/// The recursive-descent grammar over a lexed text, building with `B`.
struct Grammar<'s, B> {
    toks: Vec<Tok<'s>>,
    pos: usize,
    /// Levels currently open (see [`Grammar::nested`]).
    depth: usize,
    b: B,
}

impl<'s, B: Build> Grammar<'s, B> {
    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            msg: msg.into(),
            at: self.pos,
        })
    }

    fn found(&self) -> String {
        self.toks
            .get(self.pos)
            .map_or_else(|| "end of input".into(), Tok::to_string)
    }

    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).copied()
    }

    /// Consume the punctuation or bracket `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = matches!(self.peek(),
            Some(Tok::Punct(x) | Tok::Open(x, _) | Tok::Close(x)) if x == c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> PResult<()> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected {}, found {}", c as char, self.found()))
        }
    }

    fn ident(&mut self) -> PResult<&'s str> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.err(format!("expected identifier, found {}", self.found())),
        }
    }

    fn no_vars<T>(&self) -> PResult<T> {
        self.err("metavariables not allowed in a concrete term")
    }

    /// Run production `f` one nesting level deeper, failing past
    /// [`MAX_NESTING`]. Every cycle of the grammar's recursion passes
    /// through here — each atom (so each bracket) and each right operand
    /// of a right-recursive chain — so the count bounds the whole
    /// recursion.
    fn nested<T>(&mut self, f: fn(&mut Self) -> PResult<T>) -> PResult<T> {
        self.sink()?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Open one level, failing past [`MAX_NESTING`]. A left-associated
    /// chain calls this once per operator, since its tree sinks one level
    /// each time, and restores the depth when the chain ends.
    fn sink(&mut self) -> PResult<()> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nested deeper than {MAX_NESTING}"));
        }
        self.depth += 1;
        Ok(())
    }

    // ---- functions -----------------------------------------------------

    /// `times ('.' func)?` — `∘` associates to the right.
    fn func(&mut self) -> PResult<B::F> {
        let a = self.times()?;
        if self.eat(b'.') {
            let b = self.nested(Self::func)?;
            return Ok(self.b.func2(Tag::FCompose, a, b));
        }
        Ok(a)
    }

    /// `func_atom ('*' func_atom)*` — `×` associates to the left.
    fn times(&mut self) -> PResult<B::F> {
        let mut a = self.nested(Self::func_atom)?;
        let base = self.depth;
        while self.eat(b'*') {
            self.sink()?;
            let b = self.nested(Self::func_atom)?;
            a = self.b.func2(Tag::FTimes, a, b);
        }
        self.depth = base;
        Ok(a)
    }

    fn func_atom(&mut self) -> PResult<B::F> {
        if self.eat(b'$') {
            let name = self.ident()?;
            return self.b.var_f(name).map_or_else(|| self.no_vars(), Ok);
        }
        if self.eat(b'(') {
            let f = self.func()?;
            if self.eat(b',') {
                let g = self.func()?;
                self.expect(b')')?;
                return Ok(self.b.func2(Tag::FPairWith, f, g));
            }
            self.expect(b')')?;
            return Ok(f);
        }
        let name = self.ident()?;
        if let Some(tag) = keyword(FUNC_LEAVES, name) {
            return Ok(self.b.func0(tag, name));
        }
        match name {
            "biterate" | "iterate" | "iter" | "join" => {
                self.expect(b'(')?;
                let p = self.pred()?;
                self.expect(b',')?;
                let f = self.func()?;
                self.expect(b')')?;
                let tag = match name {
                    "biterate" => Tag::FBIterate,
                    "iterate" => Tag::FIterate,
                    "iter" => Tag::FIter,
                    _ => Tag::FJoin,
                };
                Ok(self.b.former(tag, p, f))
            }
            "Kf" => {
                self.expect(b'(')?;
                let q = self.query()?;
                self.expect(b')')?;
                Ok(self.b.const_f(q))
            }
            "Cf" => {
                self.expect(b'(')?;
                let f = self.func()?;
                self.expect(b',')?;
                let q = self.query()?;
                self.expect(b')')?;
                Ok(self.b.curry_f(f, q))
            }
            "con" => {
                self.expect(b'(')?;
                let p = self.pred()?;
                self.expect(b',')?;
                let f = self.func()?;
                self.expect(b',')?;
                let g = self.func()?;
                self.expect(b')')?;
                Ok(self.b.cond(p, f, g))
            }
            "nest" | "unnest" => {
                self.expect(b'(')?;
                let f = self.func()?;
                self.expect(b',')?;
                let g = self.func()?;
                self.expect(b')')?;
                let tag = if name == "nest" {
                    Tag::FNest
                } else {
                    Tag::FUnnest
                };
                Ok(self.b.func2(tag, f, g))
            }
            kw if PRED_KEYWORDS.contains(&kw) || QUERY_KEYWORDS.contains(&kw) => {
                self.err(format!("{kw} is not a function"))
            }
            prim => Ok(self.b.func0(Tag::FPrim, prim)),
        }
    }

    // ---- predicates ------------------------------------------------------

    /// `and ('|' pred)?` — `|` and `&` associate to the right (matching
    /// the printer; both are associative anyway).
    fn pred(&mut self) -> PResult<B::P> {
        let a = self.pred_and()?;
        if self.eat(b'|') {
            let b = self.nested(Self::pred)?;
            return Ok(self.b.pred2(Tag::POr, a, b));
        }
        Ok(a)
    }

    fn pred_and(&mut self) -> PResult<B::P> {
        let a = self.pred_oplus()?;
        if self.eat(b'&') {
            let b = self.nested(Self::pred_and)?;
            return Ok(self.b.pred2(Tag::PAnd, a, b));
        }
        Ok(a)
    }

    /// `unary ('@' times)*` — `~` binds tighter than `@`.
    fn pred_oplus(&mut self) -> PResult<B::P> {
        let mut a = self.pred_unary()?;
        let base = self.depth;
        while self.eat(b'@') {
            self.sink()?;
            let f = self.times()?;
            a = self.b.oplus(a, f);
        }
        self.depth = base;
        Ok(a)
    }

    fn pred_unary(&mut self) -> PResult<B::P> {
        if self.eat(b'~') {
            let p = self.nested(Self::pred_unary)?;
            return Ok(self.b.pred1(Tag::PNot, p));
        }
        self.nested(Self::pred_atom)
    }

    fn pred_atom(&mut self) -> PResult<B::P> {
        if self.eat(b'%') {
            let name = self.ident()?;
            return self.b.var_p(name).map_or_else(|| self.no_vars(), Ok);
        }
        if self.eat(b'(') {
            let p = self.pred()?;
            self.expect(b')')?;
            return Ok(p);
        }
        let name = self.ident()?;
        if let Some(tag) = keyword(PRED_LEAVES, name) {
            return Ok(self.b.pred0(tag, name));
        }
        match name {
            "Kp" => {
                self.expect(b'(')?;
                let b = match self.peek() {
                    Some(Tok::Ident("T")) => true,
                    Some(Tok::Ident("F")) => false,
                    _ => return self.err(format!("Kp expects T or F, found {}", self.found())),
                };
                self.pos += 1;
                self.expect(b')')?;
                Ok(self.b.const_p(b))
            }
            "Cp" => {
                self.expect(b'(')?;
                let p = self.pred()?;
                self.expect(b',')?;
                let q = self.query()?;
                self.expect(b')')?;
                Ok(self.b.curry_p(p, q))
            }
            "inv" => {
                self.expect(b'(')?;
                let p = self.pred()?;
                self.expect(b')')?;
                Ok(self.b.pred1(Tag::PConv, p))
            }
            kw if FUNC_KEYWORDS.contains(&kw) || QUERY_KEYWORDS.contains(&kw) => {
                self.err(format!("{kw} is not a predicate"))
            }
            prim => Ok(self.b.pred0(Tag::PPrimP, prim)),
        }
    }

    // ---- queries -----------------------------------------------------------

    /// `app (('union' | 'intersect' | 'diff') app)*`, left-associated.
    fn query(&mut self) -> PResult<B::Q> {
        let mut a = self.query_app()?;
        let base = self.depth;
        loop {
            let tag = match self.peek() {
                Some(Tok::Ident("union")) => Tag::QUnion,
                Some(Tok::Ident("intersect")) => Tag::QIntersect,
                Some(Tok::Ident("diff")) => Tag::QDiff,
                _ => {
                    self.depth = base;
                    return Ok(a);
                }
            };
            self.pos += 1;
            self.sink()?;
            let b = self.query_app()?;
            a = self.b.query2(tag, a, b);
        }
    }

    /// `func ! app`, `pred ? app`, or an atom, as [`Grammar::lookahead`]
    /// decides.
    fn query_app(&mut self) -> PResult<B::Q> {
        match self.lookahead() {
            Some(b'!') => {
                let f = self.func()?;
                self.expect(b'!')?;
                let q = self.nested(Self::query_app)?;
                Ok(self.b.app(f, q))
            }
            Some(_) => {
                let p = self.pred()?;
                self.expect(b'?')?;
                let q = self.nested(Self::query_app)?;
                Ok(self.b.test(p, q))
            }
            None => self.nested(Self::query_atom),
        }
    }

    /// The first `!` or `?` at bracket depth 0 from here, unless a token
    /// that ends a whole query (`,`, a closing bracket, a set operator
    /// keyword, the end of input) comes first. A metavariable's name is
    /// skipped, so `$union` is a name, not the keyword.
    fn lookahead(&self) -> Option<u8> {
        let mut i = self.pos;
        loop {
            match *self.toks.get(i)? {
                Tok::Punct(c @ (b'!' | b'?')) => return Some(c),
                Tok::Punct(b',') | Tok::Close(_) => return None,
                Tok::Ident("union" | "intersect" | "diff") => return None,
                Tok::Open(_, partner) => i = partner.checked_add(1)?,
                Tok::Punct(b'$' | b'%' | b'^')
                    if matches!(self.toks.get(i + 1), Some(Tok::Ident(_))) =>
                {
                    i += 2
                }
                _ => i += 1,
            }
        }
    }

    fn query_atom(&mut self) -> PResult<B::Q> {
        if self.eat(b'^') {
            let name = self.ident()?;
            return self.b.var_q(name).map_or_else(|| self.no_vars(), Ok);
        }
        let Some(tok) = self.peek() else {
            return self.err("expected query, found EOF");
        };
        self.pos += 1;
        match tok {
            Tok::Int(n) => Ok(self.b.lit(Value::Int(n))),
            Tok::Str(s) => Ok(self.b.lit(Value::str(s))),
            Tok::Open(b'[', _) => {
                let a = self.query()?;
                self.expect(b',')?;
                let b = self.query()?;
                self.expect(b']')?;
                Ok(self.b.pair_q(a, b))
            }
            Tok::Open(b'{', _) => {
                let set = self.set()?;
                Ok(self.b.lit(set))
            }
            Tok::Open(b'(', _) => {
                if self.eat(b')') {
                    return Ok(self.b.lit(Value::Unit));
                }
                let q = self.query()?;
                self.expect(b')')?;
                Ok(q)
            }
            Tok::Ident("T") => Ok(self.b.lit(Value::Bool(true))),
            Tok::Ident("F") => Ok(self.b.lit(Value::Bool(false))),
            Tok::Ident(s)
                if !FUNC_KEYWORDS.contains(&s)
                    && !PRED_KEYWORDS.contains(&s)
                    && !QUERY_KEYWORDS.contains(&s) =>
            {
                Ok(self.b.extent(s))
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected query, found {other}"))
            }
        }
    }

    /// The elements of a set literal, after its `{`.
    fn set(&mut self) -> PResult<Value> {
        let mut set = ValueSet::new();
        if !self.eat(b'}') {
            loop {
                set.insert(self.nested(Self::value)?);
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(Value::Set(set))
    }

    /// A *value* literal (inside set braces).
    fn value(&mut self) -> PResult<Value> {
        let Some(tok) = self.peek() else {
            return self.err("expected value literal, found EOF");
        };
        self.pos += 1;
        match tok {
            Tok::Int(n) => Ok(Value::Int(n)),
            Tok::Str(s) => Ok(Value::str(s)),
            Tok::Ident("T") => Ok(Value::Bool(true)),
            Tok::Ident("F") => Ok(Value::Bool(false)),
            Tok::Open(b'[', _) => {
                let a = self.nested(Self::value)?;
                self.expect(b',')?;
                let b = self.nested(Self::value)?;
                self.expect(b']')?;
                Ok(Value::pair(a, b))
            }
            Tok::Open(b'{', _) => self.set(),
            Tok::Open(b'(', _) => {
                self.expect(b')')?;
                Ok(Value::Unit)
            }
            other => self.err(format!("expected value literal, found {other}")),
        }
    }
}

/// Run production `f` of the grammar over all of `src`, building with `b`.
fn parse_complete<'s, B: Build, T>(
    src: &'s str,
    b: B,
    f: impl FnOnce(&mut Grammar<'s, B>) -> PResult<T>,
) -> PResult<T> {
    let mut g = Grammar {
        toks: lex(src)?,
        pos: 0,
        depth: 0,
        b,
    };
    let t = f(&mut g)?;
    if g.pos < g.toks.len() {
        return g.err("trailing input");
    }
    Ok(t)
}

/// Parse a function pattern (may contain metavariables).
pub fn parse_pfunc(src: &str) -> PResult<PFunc> {
    parse_complete(src, Trees, Grammar::func)
}

/// Parse a predicate pattern (may contain metavariables).
pub fn parse_ppred(src: &str) -> PResult<PPred> {
    parse_complete(src, Trees, Grammar::pred)
}

/// Parse a query pattern (may contain metavariables).
pub fn parse_pquery(src: &str) -> PResult<PQuery> {
    parse_complete(src, Trees, Grammar::query)
}

/// Parse a concrete query straight into `it`: the result is the node
/// `it.intern_query(&parse_query(src)?.normalize())` returns, built
/// without the tree. Accepts exactly what [`parse_query`] accepts, and
/// fails with the same error: a failed parse is re-run through the tree
/// builder for its message (the arena builder stops at the first
/// metavariable, the tree builder only after the whole text parsed).
///
/// ```
/// use kola::intern::Interner;
/// use kola::parse::{parse_query, parse_query_into};
/// let mut it = Interner::new();
/// let src = "(id . age) . id ! P";
/// let t = parse_query_into(&mut it, src).unwrap();
/// assert!(t.ptr_eq(&it.intern_query(&parse_query(src).unwrap().normalize())));
/// assert!(parse_query_into(&mut it, "$f ! P").is_err());
/// ```
pub fn parse_query_into(it: &mut Interner, src: &str) -> PResult<ITerm> {
    parse_complete(src, Arena(it), Grammar::query).map_err(|e| parse_query(src).err().unwrap_or(e))
}

fn no_vars() -> ParseError {
    ParseError {
        msg: "metavariables not allowed in a concrete term".into(),
        at: 0,
    }
}

/// Parse a concrete (variable-free) function.
///
/// ```
/// use kola::parse::parse_func;
/// // Composition is `.`, pairing is `(f, g)`, product is `*`.
/// let f = parse_func("nest(pi1, pi2) . unnest(pi1, pi2) * id").unwrap();
/// assert_eq!(parse_func(&f.to_string()).unwrap(), f);
/// ```
pub fn parse_func(src: &str) -> PResult<Func> {
    let p = parse_pfunc(src)?;
    p.to_concrete().ok_or_else(no_vars)
}

/// Parse a concrete (variable-free) predicate.
pub fn parse_pred(src: &str) -> PResult<Pred> {
    let p = parse_ppred(src)?;
    p.to_concrete().ok_or_else(no_vars)
}

/// Parse a concrete (variable-free) query.
///
/// ```
/// use kola::parse::parse_query;
/// let q = parse_query("iterate(gt @ (age, Kf(25)), age) ! P").unwrap();
/// assert_eq!(q.to_string(), "iterate(gt @ (age, Kf(25)), age) ! P");
/// assert!(parse_query("not a query ! (").is_err());
/// ```
pub fn parse_query(src: &str) -> PResult<Query> {
    let p = parse_pquery(src)?;
    p.to_concrete().ok_or_else(no_vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn parse_simple_funcs() {
        assert_eq!(parse_func("id").unwrap(), id());
        assert_eq!(parse_func("pi1 . pi2").unwrap(), o(pi1(), pi2()));
        assert_eq!(
            parse_func("a . b . c").unwrap(),
            o(prim("a"), o(prim("b"), prim("c")))
        );
        assert_eq!(
            parse_func("(a . b) . c").unwrap(),
            o(o(prim("a"), prim("b")), prim("c"))
        );
    }

    #[test]
    fn parse_formers() {
        assert_eq!(parse_func("Kf(25)").unwrap(), kf(25));
        assert_eq!(parse_func("Kf(P)").unwrap(), kf(ext("P")));
        assert_eq!(
            parse_func("(id, Kf(P))").unwrap(),
            pairf(id(), kf(ext("P")))
        );
        assert_eq!(
            parse_func("iterate(Kp(T), city . addr)").unwrap(),
            iterate(kp(true), o(prim("city"), prim("addr")))
        );
        assert_eq!(
            parse_func("con(gt, pi1, pi2)").unwrap(),
            con(gt(), pi1(), pi2())
        );
        assert_eq!(parse_func("Cf(pi1, 3)").unwrap(), cf(pi1(), 3));
    }

    #[test]
    fn parse_preds() {
        assert_eq!(parse_pred("gt").unwrap(), gt());
        assert_eq!(parse_pred("~gt").unwrap(), not(gt()));
        assert_eq!(
            parse_pred("gt @ (age, Kf(25))").unwrap(),
            oplus(gt(), pairf(prim("age"), kf(25)))
        );
        assert_eq!(
            parse_pred("Kp(T) & Kp(F)").unwrap(),
            and(kp(true), kp(false))
        );
        assert_eq!(
            parse_pred("Cp(leq, 25) @ age").unwrap(),
            oplus(cp(leq(), 25), prim("age"))
        );
        assert_eq!(parse_pred("eq | in").unwrap(), or(eq(), isin()));
    }

    #[test]
    fn precedence_not_tighter_than_oplus() {
        assert_eq!(parse_pred("~leq @ pi1").unwrap(), oplus(not(leq()), pi1()));
        assert_eq!(
            parse_pred("~(leq @ pi1)").unwrap(),
            not(oplus(leq(), pi1()))
        );
    }

    #[test]
    fn parse_queries() {
        assert_eq!(parse_query("P").unwrap(), ext("P"));
        assert_eq!(
            parse_query("iterate(Kp(T), age) ! P").unwrap(),
            app(iterate(kp(true), prim("age")), ext("P"))
        );
        assert_eq!(parse_query("[V, P]").unwrap(), pairq(ext("V"), ext("P")));
        assert_eq!(
            parse_query("A union B intersect C").unwrap(),
            intersect(union(ext("A"), ext("B")), ext("C"))
        );
        assert_eq!(
            parse_query("gt ? [3, 2]").unwrap(),
            // Literal pairs canonicalize to a single literal.
            test(gt(), lit(Value::pair(Value::Int(3), Value::Int(2))))
        );
        assert_eq!(
            parse_query("{1, 2, 3}").unwrap(),
            lit(Value::set([Value::Int(1), Value::Int(2), Value::Int(3)]))
        );
        assert_eq!(parse_query("()").unwrap(), lit(Value::Unit));
    }

    #[test]
    fn parse_patterns() {
        use crate::pattern::*;
        use std::sync::Arc;
        assert_eq!(
            parse_pfunc("$f . $g").unwrap(),
            PFunc::Compose(
                Box::new(PFunc::Var(Arc::from("f"))),
                Box::new(PFunc::Var(Arc::from("g")))
            )
        );
        assert_eq!(
            parse_ppred("%p @ $f").unwrap(),
            PPred::Oplus(
                Box::new(PPred::Var(Arc::from("p"))),
                Box::new(PFunc::Var(Arc::from("f")))
            )
        );
        assert_eq!(
            parse_pquery("Kf(^B) ! ^A").unwrap(),
            PQuery::App(
                PFunc::ConstF(Box::new(PQuery::Var(Arc::from("B")))),
                Box::new(PQuery::Var(Arc::from("A")))
            )
        );
    }

    #[test]
    fn concrete_rejects_vars() {
        assert!(parse_func("$f").is_err());
        assert!(parse_pred("%p").is_err());
        assert!(parse_query("^x").is_err());
    }

    #[test]
    fn garage_query_kg2_parses() {
        let src = "nest(pi1, pi2) . unnest(pi1, pi2) * id . \
                   (join(in @ id * cars, id * grgs), pi1) ! [V, P]";
        let q = parse_query(src).unwrap();
        assert_eq!(q.to_string(), src);
    }

    #[test]
    fn errors() {
        assert!(parse_func("iterate(Kp(T)").is_err());
        assert!(parse_func("union").is_err()); // query keyword in func position
        assert!(parse_pred("id").is_err()); // func keyword in pred position
        assert!(parse_query("P union").is_err());
        assert!(parse_query(r#""unterminated"#).is_err());
        assert!(parse_func("f . . g").is_err());
        assert!(parse_query("P trailing").is_err());
    }

    #[test]
    fn lookahead_picks_the_production() {
        use crate::pattern::*;
        // A metavariable named like a set keyword is still a name.
        assert_eq!(
            parse_pquery("$union ! P").unwrap(),
            PQuery::App(PFunc::Var(Arc::from("union")), Box::new(ext_p("P")))
        );
        // Brackets hide their `!`/`?`; the outer query is a pair.
        assert_eq!(
            parse_query("[f ! A, p ? B]").unwrap(),
            pairq(app(prim("f"), ext("A")), test(primp("p"), ext("B")))
        );
        // `,` and set keywords end the look-ahead.
        assert_eq!(
            parse_query("A union f ! B").unwrap(),
            union(ext("A"), app(prim("f"), ext("B")))
        );
        // An atom followed by a `!` cannot complete a parse, nor can a
        // function before a `?`.
        assert!(parse_query("A B ! C").is_err());
        assert!(parse_query("(f ! A").is_err());
        assert!(parse_query("id ? A").is_err());
    }

    fn ext_p(name: &str) -> crate::pattern::PQuery {
        crate::pattern::PQuery::Extent(Arc::from(name))
    }

    #[test]
    fn print_parse_round_trip_spot_checks() {
        for src in [
            "iterate(Kp(T), (id, flat . iter(Kp(T), grgs . pi2) . (id, Kf(P)))) ! V",
            "con(Cp(leq, 25) @ age, child, Kf({}))",
            "gt @ (age . pi1, Kf(25))",
            "nest(pi1, pi2) . (join(Kp(T), id), pi1) ! [A, B]",
        ] {
            // Try each entry point; at least one must succeed and round-trip.
            if let Ok(f) = parse_func(src) {
                assert_eq!(parse_func(&f.to_string()).unwrap(), f);
            } else if let Ok(p) = parse_pred(src) {
                assert_eq!(parse_pred(&p.to_string()).unwrap(), p);
            } else {
                let q = parse_query(src).unwrap();
                assert_eq!(parse_query(&q.to_string()).unwrap(), q);
            }
        }
    }

    #[test]
    fn nesting_is_capped() {
        // Each shape opens `n` levels: brackets around an atom (the atom is
        // a level of its own), right-associated `~`, `!` and `.` chains,
        // and left-associated `*`, `@` and `union` chains.
        let shapes: [fn(usize) -> String; 7] = [
            |n| format!("{}P{}", "(".repeat(n - 1), ")".repeat(n - 1)),
            |n| format!("{}eq ? P", "~".repeat(n - 1)),
            |n| format!("{}P", "id ! ".repeat(n - 1)),
            |n| format!("{}age ! P", "id . ".repeat(n - 1)),
            |n| format!("age{} ! P", " * age".repeat(n - 1)),
            |n| format!("eq{} ? P", " @ id".repeat(n - 1)),
            |n| format!("P{}", " union P".repeat(n - 1)),
        ];
        // Run on a stack the size of a service worker's: a debug build
        // spends more than a default test thread's stack on the deepest
        // accepted nesting.
        std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(move || {
                for shape in shapes {
                    let ok = shape(MAX_NESTING);
                    assert!(parse_query(&ok).is_ok(), "{ok:.40}");
                    let deep = shape(MAX_NESTING + 1);
                    let e = parse_query(&deep).unwrap_err();
                    assert!(e.msg.contains("nested deeper than"), "{e}");
                    let mut it = Interner::new();
                    assert_eq!(parse_query_into(&mut it, &deep).err(), Some(e));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
