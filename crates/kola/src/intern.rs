//! Hash-consed (interned) representation of KOLA terms.
//!
//! The paper's variable-free combinator terms are pure syntax — no binders,
//! no α-renaming — which makes them ideal for *hash-consing*: every distinct
//! subterm is built exactly once per [`Interner`], and structurally equal
//! subterms are the *same* allocation. Within one interner this gives
//!
//! * O(1) structural equality ([`ITerm::ptr_eq`]),
//! * O(1) size/depth queries (cached at construction, so budget enforcement
//!   no longer re-walks the term each step),
//! * a precomputed 64-bit structural fingerprint ([`ITerm::fp`]) for cycle
//!   detection and memoization, and
//! * free structural sharing: "cloning" a subtree is an `Arc` bump.
//!
//! The representation is a flat [`Tag`] + payload + children encoding rather
//! than three mirrored enums: one node type covers [`Func`], [`Pred`] and
//! [`Query`] uniformly, so the rewrite engine's generic machinery (matching,
//! indexing, rebuilding along a path) is written once.
//!
//! Conversion is lossless both ways: [`Interner::intern_query`] and
//! [`ITerm::to_query`] (and the `func`/`pred` analogues) round-trip every
//! term, using explicit stacks so arbitrarily deep ∘-chains cost heap, not
//! stack.
//! Source text need not pass through a boxed term at all:
//! [`crate::parse::parse_query_into`] builds a query's nodes here straight
//! from the text, ∘-chains right-associated by [`icompose`].
//!
//! **Drop discipline.** Interned nodes hold `Arc`s to their children, so
//! dropping the last reference to a deep chain would recurse. The interner's
//! [`Drop`] impl prevents this by releasing its table in decreasing-size
//! order (a parent is strictly larger than any child, so every release
//! cascades at most one level). Holders of `ITerm`s must therefore drop them
//! *before* the interner that created them — in a struct, declare the
//! `ITerm`-holding fields before the `Interner` field.

use crate::term::{Func, Pred, Query};
use crate::value::{Sym, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Flat constructor tag covering all three term levels.
///
/// `F*` tags are [`Func`] constructors, `P*` tags are [`Pred`] constructors,
/// `Q*` tags are [`Query`] constructors, in declaration order of the
/// originals. The numeric discriminant participates in fingerprints.
#[allow(missing_docs)] // one-to-one with the documented `Func`/`Pred`/`Query` variants
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tag {
    // Func
    FId,
    FPi1,
    FPi2,
    FPrim,
    FCompose,
    FPairWith,
    FTimes,
    FConstF,
    FCurryF,
    FCond,
    FFlat,
    FIterate,
    FIter,
    FJoin,
    FNest,
    FUnnest,
    FBagify,
    FDedup,
    FBIterate,
    FBUnion,
    FBFlat,
    FSetUnion,
    FSetIntersect,
    FSetDiff,
    // Pred
    PEq,
    PLt,
    PLeq,
    PGt,
    PGeq,
    PIn,
    PPrimP,
    POplus,
    PAnd,
    POr,
    PNot,
    PConv,
    PConstP,
    PCurryP,
    // Query
    QLit,
    QExtent,
    QPairQ,
    QApp,
    QTest,
    QUnion,
    QIntersect,
    QDiff,
}

impl Tag {
    /// The tag of a concrete function's root constructor.
    pub fn of_func(f: &Func) -> Tag {
        match f {
            Func::Id => Tag::FId,
            Func::Pi1 => Tag::FPi1,
            Func::Pi2 => Tag::FPi2,
            Func::Prim(_) => Tag::FPrim,
            Func::Compose(..) => Tag::FCompose,
            Func::PairWith(..) => Tag::FPairWith,
            Func::Times(..) => Tag::FTimes,
            Func::ConstF(_) => Tag::FConstF,
            Func::CurryF(..) => Tag::FCurryF,
            Func::Cond(..) => Tag::FCond,
            Func::Flat => Tag::FFlat,
            Func::Iterate(..) => Tag::FIterate,
            Func::Iter(..) => Tag::FIter,
            Func::Join(..) => Tag::FJoin,
            Func::Nest(..) => Tag::FNest,
            Func::Unnest(..) => Tag::FUnnest,
            Func::Bagify => Tag::FBagify,
            Func::Dedup => Tag::FDedup,
            Func::BIterate(..) => Tag::FBIterate,
            Func::BUnion => Tag::FBUnion,
            Func::BFlat => Tag::FBFlat,
            Func::SetUnion => Tag::FSetUnion,
            Func::SetIntersect => Tag::FSetIntersect,
            Func::SetDiff => Tag::FSetDiff,
        }
    }

    /// The tag of a concrete predicate's root constructor.
    pub fn of_pred(p: &Pred) -> Tag {
        match p {
            Pred::Eq => Tag::PEq,
            Pred::Lt => Tag::PLt,
            Pred::Leq => Tag::PLeq,
            Pred::Gt => Tag::PGt,
            Pred::Geq => Tag::PGeq,
            Pred::In => Tag::PIn,
            Pred::PrimP(_) => Tag::PPrimP,
            Pred::Oplus(..) => Tag::POplus,
            Pred::And(..) => Tag::PAnd,
            Pred::Or(..) => Tag::POr,
            Pred::Not(_) => Tag::PNot,
            Pred::Conv(_) => Tag::PConv,
            Pred::ConstP(_) => Tag::PConstP,
            Pred::CurryP(..) => Tag::PCurryP,
        }
    }

    /// The tag of a concrete query's root constructor.
    pub fn of_query(q: &Query) -> Tag {
        match q {
            Query::Lit(_) => Tag::QLit,
            Query::Extent(_) => Tag::QExtent,
            Query::PairQ(..) => Tag::QPairQ,
            Query::App(..) => Tag::QApp,
            Query::Test(..) => Tag::QTest,
            Query::Union(..) => Tag::QUnion,
            Query::Intersect(..) => Tag::QIntersect,
            Query::Diff(..) => Tag::QDiff,
        }
    }
}

/// Non-child data carried by an interned node. `Hash` hashes the payload
/// *structurally* (the `Sym`/`Value` contents, not addresses), which is what
/// lets the e-graph's hashcons key e-nodes on `(Tag, Payload, child classes)`;
/// `Ord` gives e-nodes a total order so e-class contents stay canonical.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Payload {
    /// No payload (most constructors).
    None,
    /// A symbol (`Prim`, `PrimP`, `Extent`).
    Sym(Sym),
    /// A boolean (`ConstP`).
    Bool(bool),
    /// A literal value (`Lit`).
    Value(Arc<Value>),
}

impl<'a> From<&'a Payload> for PayloadRef<'a> {
    /// Borrowed view, for lookups that must not allocate.
    fn from(p: &'a Payload) -> PayloadRef<'a> {
        match p {
            Payload::None => PayloadRef::None,
            Payload::Sym(s) => PayloadRef::Sym(s),
            Payload::Bool(b) => PayloadRef::Bool(*b),
            Payload::Value(v) => PayloadRef::Value(v),
        }
    }
}

/// A [`Payload`] borrowed from a source term, a rule pattern or source
/// text: hashed and compared during interning, and turned into an owned
/// [`Payload`] only when the node it labels is new. A symbol is borrowed
/// as a `&str`, which hashes exactly as the [`Sym`] it becomes.
#[allow(missing_docs)] // one-to-one with the documented `Payload` variants
#[derive(Debug, Clone, Copy)]
pub enum PayloadRef<'a> {
    None,
    Sym(&'a str),
    Bool(bool),
    Value(&'a Value),
}

impl PayloadRef<'_> {
    fn hash64(self) -> u64 {
        let mut h = DefaultHasher::new();
        match self {
            PayloadRef::None => 0u8.hash(&mut h),
            PayloadRef::Sym(s) => {
                1u8.hash(&mut h);
                s.hash(&mut h);
            }
            PayloadRef::Bool(b) => {
                2u8.hash(&mut h);
                b.hash(&mut h);
            }
            PayloadRef::Value(v) => {
                3u8.hash(&mut h);
                v.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Structural equality with an owned payload (what `Payload`'s derived
    /// `PartialEq` would say of `self.to_owned()`).
    fn matches(self, p: &Payload) -> bool {
        match (self, p) {
            (PayloadRef::None, Payload::None) => true,
            (PayloadRef::Sym(a), Payload::Sym(b)) => a == &**b,
            (PayloadRef::Bool(a), Payload::Bool(b)) => a == *b,
            (PayloadRef::Value(a), Payload::Value(b)) => a == &**b,
            _ => false,
        }
    }

    /// The owned payload, made when a node it labels is new.
    pub fn to_owned(self) -> Payload {
        match self {
            PayloadRef::None => Payload::None,
            PayloadRef::Sym(s) => Payload::Sym(Sym::from(s)),
            PayloadRef::Bool(b) => Payload::Bool(b),
            PayloadRef::Value(v) => Payload::Value(Arc::new(v.clone())),
        }
    }
}

/// One hash-consed node. Private: reached through [`ITerm`].
#[derive(Debug)]
struct INode {
    tag: Tag,
    payload: Payload,
    kids: NodeKids,
    fp: u64,
    size: usize,
    depth: usize,
}

/// A node's children, stored inline: every constructor has arity ≤ 3, so
/// building a node is one allocation (its `Arc`), not two.
#[derive(Debug)]
enum NodeKids {
    K0,
    K1([ITerm; 1]),
    K2([ITerm; 2]),
    K3([ITerm; 3]),
}

impl NodeKids {
    fn of(kids: &[ITerm]) -> NodeKids {
        match kids {
            [] => NodeKids::K0,
            [a] => NodeKids::K1([a.clone()]),
            [a, b] => NodeKids::K2([a.clone(), b.clone()]),
            [a, b, c] => NodeKids::K3([a.clone(), b.clone(), c.clone()]),
            _ => unreachable!("constructor arity is at most 3, got {}", kids.len()),
        }
    }

    fn as_slice(&self) -> &[ITerm] {
        match self {
            NodeKids::K0 => &[],
            NodeKids::K1(k) => k,
            NodeKids::K2(k) => k,
            NodeKids::K3(k) => k,
        }
    }
}

/// A handle to a hash-consed term (function, predicate or query level).
///
/// Cheap to clone (`Arc` bump). Within the [`Interner`] that created them,
/// two `ITerm`s are structurally equal iff [`ITerm::ptr_eq`] — never compare
/// handles from different interners.
#[derive(Debug, Clone)]
pub struct ITerm(Arc<INode>);

impl ITerm {
    /// Root constructor tag.
    pub fn tag(&self) -> Tag {
        self.0.tag
    }

    /// Non-child payload of the root.
    pub fn payload(&self) -> &Payload {
        &self.0.payload
    }

    /// Children, in the same order the rewrite engine descends the
    /// boxed representation.
    pub fn kids(&self) -> &[ITerm] {
        self.0.kids.as_slice()
    }

    /// Precomputed 64-bit structural fingerprint. Equal terms always have
    /// equal fingerprints; distinct terms collide with probability ≈ 2⁻⁶⁴.
    pub fn fp(&self) -> u64 {
        self.0.fp
    }

    /// Cached node count (agrees with [`Func::size`] etc.).
    pub fn size(&self) -> usize {
        self.0.size
    }

    /// Cached maximum nesting depth (agrees with [`Func::depth`] etc.).
    pub fn depth(&self) -> usize {
        self.0.depth
    }

    /// Identity of the underlying allocation — usable as an exact key for
    /// memo tables and cycle detection *within one interner*.
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// O(1) structural equality for terms from the same interner.
    pub fn ptr_eq(&self, other: &ITerm) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Reify as a [`Func`]. Panics if this node is not function-level —
    /// levels are static in every caller, so a mismatch is an engine bug.
    pub fn to_func(&self) -> Func {
        match self.reify() {
            Out::F(f) => f,
            _ => unreachable!("level mismatch: expected a Func node"),
        }
    }

    /// Reify as a [`Pred`]. Panics on level mismatch (see [`ITerm::to_func`]).
    pub fn to_pred(&self) -> Pred {
        match self.reify() {
            Out::P(p) => p,
            _ => unreachable!("level mismatch: expected a Pred node"),
        }
    }

    /// Reify as a [`Query`]. Panics on level mismatch (see [`ITerm::to_func`]).
    pub fn to_query(&self) -> Query {
        match self.reify() {
            Out::Q(q) => q,
            _ => unreachable!("level mismatch: expected a Query node"),
        }
    }

    /// Stack-safe reification of this node back into boxed terms.
    fn reify(&self) -> Out {
        enum Walk<'a> {
            Visit(&'a ITerm),
            Build(&'a ITerm),
        }
        let mut tasks = vec![Walk::Visit(self)];
        let mut out: Vec<Out> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Walk::Visit(t) => {
                    tasks.push(Walk::Build(t));
                    for k in t.kids().iter().rev() {
                        tasks.push(Walk::Visit(k));
                    }
                }
                Walk::Build(t) => {
                    let kids = out.split_off(out.len() - t.kids().len());
                    out.push(build_node(t.tag(), t.payload(), kids));
                }
            }
        }
        out.pop().expect("reify yields exactly one term")
    }
}

/// Reified term at any of the three levels.
enum Out {
    F(Func),
    P(Pred),
    Q(Query),
}

impl Out {
    fn f(self) -> Box<Func> {
        match self {
            Out::F(f) => Box::new(f),
            _ => unreachable!("kid level mismatch: expected Func"),
        }
    }
    fn p(self) -> Box<Pred> {
        match self {
            Out::P(p) => Box::new(p),
            _ => unreachable!("kid level mismatch: expected Pred"),
        }
    }
    fn q(self) -> Box<Query> {
        match self {
            Out::Q(q) => Box::new(q),
            _ => unreachable!("kid level mismatch: expected Query"),
        }
    }
}

/// Build one boxed node from a tag, payload and already-reified children.
fn build_node(tag: Tag, payload: &Payload, kids: Vec<Out>) -> Out {
    let mut k = kids.into_iter();
    let mut next = || k.next().expect("arity checked at intern time");
    let sym = || match payload {
        Payload::Sym(s) => s.clone(),
        _ => unreachable!("payload mismatch: expected Sym"),
    };
    match tag {
        Tag::FId => Out::F(Func::Id),
        Tag::FPi1 => Out::F(Func::Pi1),
        Tag::FPi2 => Out::F(Func::Pi2),
        Tag::FPrim => Out::F(Func::Prim(sym())),
        Tag::FCompose => Out::F(Func::Compose(next().f(), next().f())),
        Tag::FPairWith => Out::F(Func::PairWith(next().f(), next().f())),
        Tag::FTimes => Out::F(Func::Times(next().f(), next().f())),
        Tag::FConstF => Out::F(Func::ConstF(next().q())),
        Tag::FCurryF => Out::F(Func::CurryF(next().f(), next().q())),
        Tag::FCond => Out::F(Func::Cond(next().p(), next().f(), next().f())),
        Tag::FFlat => Out::F(Func::Flat),
        Tag::FIterate => Out::F(Func::Iterate(next().p(), next().f())),
        Tag::FIter => Out::F(Func::Iter(next().p(), next().f())),
        Tag::FJoin => Out::F(Func::Join(next().p(), next().f())),
        Tag::FNest => Out::F(Func::Nest(next().f(), next().f())),
        Tag::FUnnest => Out::F(Func::Unnest(next().f(), next().f())),
        Tag::FBagify => Out::F(Func::Bagify),
        Tag::FDedup => Out::F(Func::Dedup),
        Tag::FBIterate => Out::F(Func::BIterate(next().p(), next().f())),
        Tag::FBUnion => Out::F(Func::BUnion),
        Tag::FBFlat => Out::F(Func::BFlat),
        Tag::FSetUnion => Out::F(Func::SetUnion),
        Tag::FSetIntersect => Out::F(Func::SetIntersect),
        Tag::FSetDiff => Out::F(Func::SetDiff),
        Tag::PEq => Out::P(Pred::Eq),
        Tag::PLt => Out::P(Pred::Lt),
        Tag::PLeq => Out::P(Pred::Leq),
        Tag::PGt => Out::P(Pred::Gt),
        Tag::PGeq => Out::P(Pred::Geq),
        Tag::PIn => Out::P(Pred::In),
        Tag::PPrimP => Out::P(Pred::PrimP(sym())),
        Tag::POplus => Out::P(Pred::Oplus(next().p(), next().f())),
        Tag::PAnd => Out::P(Pred::And(next().p(), next().p())),
        Tag::POr => Out::P(Pred::Or(next().p(), next().p())),
        Tag::PNot => Out::P(Pred::Not(next().p())),
        Tag::PConv => Out::P(Pred::Conv(next().p())),
        Tag::PConstP => match payload {
            Payload::Bool(b) => Out::P(Pred::ConstP(*b)),
            _ => unreachable!("payload mismatch: expected Bool"),
        },
        Tag::PCurryP => Out::P(Pred::CurryP(next().p(), next().q())),
        Tag::QLit => match payload {
            Payload::Value(v) => Out::Q(Query::Lit((**v).clone())),
            _ => unreachable!("payload mismatch: expected Value"),
        },
        Tag::QExtent => Out::Q(Query::Extent(sym())),
        Tag::QPairQ => Out::Q(Query::PairQ(next().q(), next().q())),
        Tag::QApp => Out::Q(Query::App(*next().f(), next().q())),
        Tag::QTest => Out::Q(Query::Test(*next().p(), next().q())),
        Tag::QUnion => Out::Q(Query::Union(next().q(), next().q())),
        Tag::QIntersect => Out::Q(Query::Intersect(next().q(), next().q())),
        Tag::QDiff => Out::Q(Query::Diff(next().q(), next().q())),
    }
}

/// Source term at any of the three levels (borrowed, for interning).
#[derive(Clone, Copy)]
enum Src<'a> {
    F(&'a Func),
    P(&'a Pred),
    Q(&'a Query),
}

/// A node's borrowed children in intern order. Every constructor has
/// arity ≤ 3, so a fixed array holds them and decomposing a node
/// allocates nothing.
struct Kids<'a>([Option<Src<'a>>; 3]);

impl<'a> Kids<'a> {
    fn of(kids: &[Src<'a>]) -> Kids<'a> {
        let mut buf = [None; 3];
        for (slot, k) in buf.iter_mut().zip(kids) {
            *slot = Some(*k);
        }
        Kids(buf)
    }

    fn len(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// The children last-first — the order a work stack pushes them.
    fn rev(self) -> impl Iterator<Item = Src<'a>> {
        self.0.into_iter().rev().flatten()
    }
}

impl<'a> Src<'a> {
    /// Tag, payload, and borrowed children of this node, in intern order.
    fn decompose(self) -> (Tag, PayloadRef<'a>, Kids<'a>) {
        use Src::{F, P, Q};
        let none = PayloadRef::None;
        match self {
            F(f) => {
                let tag = Tag::of_func(f);
                match f {
                    Func::Prim(s) => (tag, PayloadRef::Sym(s), Kids::of(&[])),
                    Func::Compose(a, b)
                    | Func::PairWith(a, b)
                    | Func::Times(a, b)
                    | Func::Nest(a, b)
                    | Func::Unnest(a, b) => (tag, none, Kids::of(&[F(a), F(b)])),
                    Func::ConstF(q) => (tag, none, Kids::of(&[Q(q)])),
                    Func::CurryF(g, q) => (tag, none, Kids::of(&[F(g), Q(q)])),
                    Func::Cond(p, g, h) => (tag, none, Kids::of(&[P(p), F(g), F(h)])),
                    Func::Iterate(p, g)
                    | Func::Iter(p, g)
                    | Func::Join(p, g)
                    | Func::BIterate(p, g) => (tag, none, Kids::of(&[P(p), F(g)])),
                    _ => (tag, none, Kids::of(&[])),
                }
            }
            P(p) => {
                let tag = Tag::of_pred(p);
                match p {
                    Pred::PrimP(s) => (tag, PayloadRef::Sym(s), Kids::of(&[])),
                    Pred::Oplus(q, g) => (tag, none, Kids::of(&[P(q), F(g)])),
                    Pred::And(a, b) | Pred::Or(a, b) => (tag, none, Kids::of(&[P(a), P(b)])),
                    Pred::Not(q) | Pred::Conv(q) => (tag, none, Kids::of(&[P(q)])),
                    Pred::ConstP(b) => (tag, PayloadRef::Bool(*b), Kids::of(&[])),
                    Pred::CurryP(q, x) => (tag, none, Kids::of(&[P(q), Q(x)])),
                    _ => (tag, none, Kids::of(&[])),
                }
            }
            Q(q) => {
                let tag = Tag::of_query(q);
                match q {
                    Query::Lit(v) => (tag, PayloadRef::Value(v), Kids::of(&[])),
                    Query::Extent(s) => (tag, PayloadRef::Sym(s), Kids::of(&[])),
                    Query::PairQ(a, b)
                    | Query::Union(a, b)
                    | Query::Intersect(a, b)
                    | Query::Diff(a, b) => (tag, none, Kids::of(&[Q(a), Q(b)])),
                    Query::App(f, x) => (tag, none, Kids::of(&[F(f), Q(x)])),
                    Query::Test(p, x) => (tag, none, Kids::of(&[P(p), Q(x)])),
                }
            }
        }
    }
}

/// 64-bit finalizer (splitmix64-style) used to mix fingerprints.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A node's fingerprint from its tag, payload and children's fingerprints:
/// the one formula [`Interner::mk`], [`Interner::intern_query`] and
/// [`query_fp`] share, so the three can never diverge.
fn node_fp(tag: Tag, payload: PayloadRef<'_>, kids: impl Iterator<Item = u64>) -> u64 {
    let mut fp = mix((tag as u64).wrapping_add(0x9e37_79b9_7f4a_7c15));
    if !matches!(payload, PayloadRef::None) {
        fp = mix(fp ^ payload.hash64());
    }
    for k in kids {
        fp = mix(fp.rotate_left(13) ^ k);
    }
    fp
}

/// The post-order task of the interning walks: visit a source node, or
/// combine the last `n` finished children into its parent.
enum Walk<'a> {
    Visit(Src<'a>),
    Build(Tag, PayloadRef<'a>, usize),
}

impl<'a> Walk<'a> {
    /// Replace a `Visit` by its `Build` and its children's visits, so the
    /// children finish (in order) before their parent.
    fn expand(src: Src<'a>, tasks: &mut Vec<Walk<'a>>) {
        let (tag, payload, kids) = src.decompose();
        tasks.push(Walk::Build(tag, payload, kids.len()));
        tasks.extend(kids.rev().map(Walk::Visit));
    }
}

/// The structural fingerprint of a borrowed query, computed without an
/// arena: for every query `q` and every interner `it`,
/// `query_fp(&q) == it.intern_query(&q).fp()`. One stack-safe post-order
/// walk — the same one [`Interner::intern_query`] runs — that interns (and
/// allocates) nothing beyond its explicit stacks, usable as a cache key on
/// threads that own no interner (the plan cache in `kola-service` keys on
/// it at submission time). Equal queries always agree; distinct queries
/// collide with probability ≈ 2⁻⁶⁴, so callers that key on it must confirm
/// hits structurally.
pub fn query_fp(q: &Query) -> u64 {
    let mut tasks = vec![Walk::Visit(Src::Q(q))];
    let mut out: Vec<u64> = Vec::new();
    while let Some(task) = tasks.pop() {
        match task {
            Walk::Visit(src) => Walk::expand(src, &mut tasks),
            Walk::Build(tag, payload, n) => {
                let at = out.len() - n;
                let fp = node_fp(tag, payload, out[at..].iter().copied());
                out.truncate(at);
                out.push(fp);
            }
        }
    }
    out.pop().expect("fp walk yields exactly one value")
}

/// The nodes sharing one fingerprint. Distinct terms collide with
/// probability ≈ 2⁻⁶⁴, so nearly every bucket holds one node, kept inline
/// rather than in a one-element `Vec`.
#[derive(Debug)]
enum Bucket {
    One(ITerm),
    Many(Vec<ITerm>),
}

impl Bucket {
    fn nodes(&self) -> &[ITerm] {
        match self {
            Bucket::One(t) => std::slice::from_ref(t),
            Bucket::Many(v) => v,
        }
    }

    fn push(&mut self, t: ITerm) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![first.clone(), t]),
            Bucket::Many(v) => v.push(t),
        }
    }
}

/// The hash-cons arena: owns every node it has built and deduplicates
/// structurally equal constructions.
#[derive(Debug, Default)]
pub struct Interner {
    /// fingerprint → nodes with that fingerprint (collision bucket).
    table: HashMap<u64, Bucket>,
    /// Number of `mk` calls that had to *construct* (cache misses) — a
    /// deterministic work counter for tests and benches.
    constructed: u64,
    /// Live nodes currently in the arena (maintained incrementally so
    /// [`Interner::len`] and the peak tracking stay O(1)).
    live: usize,
    /// High-water mark of [`Interner::len`] across the arena's whole life,
    /// *including* across [`Interner::clear`] compactions — the
    /// observability hook long-lived engines export as "arena peak".
    peak: usize,
}

impl Interner {
    /// A fresh, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes constructed so far (cache misses).
    pub fn constructed(&self) -> u64 {
        self.constructed
    }

    /// Number of live distinct nodes in the arena.
    pub fn len(&self) -> usize {
        self.live
    }

    /// High-water mark of [`Interner::len`] over the arena's whole life.
    /// Survives [`Interner::clear`]: a compaction resets the live count,
    /// not the history — so a long-lived engine can report how large its
    /// arena ever got, which is what capacity planning needs.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// True iff no node has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Release every node and empty the arena (the reset half of the
    /// reset-or-retain contract long-lived holders need for bounded
    /// growth). Uses the same largest-first release discipline as `Drop`,
    /// so arbitrarily deep chains never recurse.
    ///
    /// Callers must drop any caches keyed by node *address* first: a fresh
    /// arena may hand a recycled allocation the same address, and a stale
    /// address key would then alias an unrelated node. Handles to deep
    /// terms held outside the arena should also be dropped before calling
    /// this — once the table no longer pins a chain's suffixes, dropping
    /// such a handle cascades child by child.
    pub fn clear(&mut self) {
        self.live = 0;
        let mut nodes: Vec<ITerm> = Vec::with_capacity(self.table.len());
        for (_, b) in self.table.drain() {
            match b {
                Bucket::One(t) => nodes.push(t),
                Bucket::Many(v) => nodes.extend(v),
            }
        }
        nodes.sort_by_key(|n| std::cmp::Reverse(n.size()));
        for n in nodes {
            drop(n);
        }
    }

    /// Intern one node whose children are already interned. Returns the
    /// canonical handle: if an identical node exists it is reused. The
    /// payload stays borrowed and the children are read from a slice (a
    /// caller's stack array), so a hit allocates nothing; only a new node
    /// takes an owned payload and copies of its children's handles.
    pub fn mk(&mut self, tag: Tag, payload: PayloadRef<'_>, kids: &[ITerm]) -> ITerm {
        let fp = node_fp(tag, payload, kids.iter().map(ITerm::fp));
        match self.find(fp, tag, payload, kids) {
            Some(t) => t,
            None => self.insert(fp, tag, payload.to_owned(), kids),
        }
    }

    /// `t` with its `i`-th child replaced by `kid` — the one-node rebuild a
    /// rewrite below `t` needs. Every constructor has arity ≤ 3, so the
    /// new child list lives on the stack.
    pub fn with_kid(&mut self, t: &ITerm, i: usize, kid: ITerm) -> ITerm {
        let payload = PayloadRef::from(t.payload());
        let k = t.kids();
        match k.len() {
            1 => self.mk(t.tag(), payload, &[kid]),
            2 => {
                let mut nk = [k[0].clone(), k[1].clone()];
                nk[i] = kid;
                self.mk(t.tag(), payload, &nk)
            }
            3 => {
                let mut nk = [k[0].clone(), k[1].clone(), k[2].clone()];
                nk[i] = kid;
                self.mk(t.tag(), payload, &nk)
            }
            n => unreachable!("a node with {n} children has no child {i} to replace"),
        }
    }

    /// The existing node equal to `(tag, payload, kids)`, whose fingerprint
    /// is `fp`, if any.
    fn find(&self, fp: u64, tag: Tag, payload: PayloadRef<'_>, kids: &[ITerm]) -> Option<ITerm> {
        self.table.get(&fp)?.nodes().iter().find_map(|t| {
            let same = t.tag() == tag
                && t.kids().len() == kids.len()
                && t.kids().iter().zip(kids).all(|(a, b)| a.ptr_eq(b))
                && payload.matches(t.payload());
            same.then(|| t.clone())
        })
    }

    /// Construct a node [`Interner::find`] did not find.
    fn insert(&mut self, fp: u64, tag: Tag, payload: Payload, kids: &[ITerm]) -> ITerm {
        let size = 1 + kids.iter().map(|k| k.size()).sum::<usize>();
        let depth = 1 + kids.iter().map(|k| k.depth()).max().unwrap_or(0);
        let node = ITerm(Arc::new(INode {
            tag,
            payload,
            kids: NodeKids::of(kids),
            fp,
            size,
            depth,
        }));
        match self.table.entry(fp) {
            Entry::Vacant(e) => {
                e.insert(Bucket::One(node.clone()));
            }
            Entry::Occupied(mut e) => e.get_mut().push(node.clone()),
        }
        self.constructed += 1;
        self.live += 1;
        self.peak = self.peak.max(self.live);
        node
    }

    /// Intern a concrete function.
    pub fn intern_func(&mut self, f: &Func) -> ITerm {
        self.intern(Src::F(f))
    }

    /// Intern a concrete predicate.
    pub fn intern_pred(&mut self, p: &Pred) -> ITerm {
        self.intern(Src::P(p))
    }

    /// Intern a concrete query.
    pub fn intern_query(&mut self, q: &Query) -> ITerm {
        self.intern(Src::Q(q))
    }

    /// Stack-safe bottom-up interning of a borrowed term. Each node is
    /// looked up from a borrowed payload and a slice of the output stack;
    /// only a node the arena does not hold yet allocates.
    fn intern(&mut self, root: Src<'_>) -> ITerm {
        let mut tasks = vec![Walk::Visit(root)];
        let mut out: Vec<ITerm> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Walk::Visit(src) => Walk::expand(src, &mut tasks),
                Walk::Build(tag, payload, n) => {
                    let at = out.len() - n;
                    let kids = &out[at..];
                    let fp = node_fp(tag, payload, kids.iter().map(ITerm::fp));
                    let node = match self.find(fp, tag, payload, kids) {
                        Some(t) => t,
                        None => self.insert(fp, tag, payload.to_owned(), kids),
                    };
                    out.truncate(at);
                    out.push(node);
                }
            }
        }
        out.pop().expect("intern yields exactly one term")
    }
}

/// Flatten an interned composition chain into its segments, left to right
/// (iterative, so a chain of any length costs no native stack).
pub fn ichain_segments(t: &ITerm) -> Vec<ITerm> {
    let mut out = Vec::new();
    let mut work = vec![t.clone()];
    while let Some(f) = work.pop() {
        if f.tag() == Tag::FCompose {
            let kids = f.kids();
            work.push(kids[1].clone());
            work.push(kids[0].clone());
        } else {
            out.push(f);
        }
    }
    out
}

/// Segments [`icompose`] re-associates without a heap buffer.
const ICHAIN_INLINE: usize = 32;

/// Smart `∘` constructor: builds `a ∘ b` right-normalized. If `a` is itself
/// a chain, its segments are re-associated onto `b`, so the result never has
/// a `∘` as a left child (given `a` and `b` internally normalized) — the
/// form [`Func::normalize`] gives. The KOLA parser's arena builder and
/// every rewrite that builds a `∘` go through it.
pub fn icompose(it: &mut Interner, a: ITerm, b: ITerm) -> ITerm {
    if a.tag() != Tag::FCompose {
        return it.mk(Tag::FCompose, PayloadRef::None, &[a, b]);
    }
    // A right-normalized `a` of modest length is read off its spine into a
    // stack array; anything else takes the general flatten.
    let mut buf = [&a; ICHAIN_INLINE];
    let mut n = 0;
    let mut cur = &a;
    let spine = loop {
        if n == ICHAIN_INLINE {
            break false;
        }
        if cur.tag() != Tag::FCompose {
            buf[n] = cur;
            n += 1;
            break true;
        }
        let k = cur.kids();
        if k[0].tag() == Tag::FCompose {
            break false;
        }
        buf[n] = &k[0];
        n += 1;
        cur = &k[1];
    };
    if spine {
        fold_onto(it, buf[..n].iter().copied(), b)
    } else {
        fold_onto(it, ichain_segments(&a).iter(), b)
    }
}

/// `s₁ ∘ (s₂ ∘ (… ∘ (sₙ ∘ b)))` for the segments `s₁ … sₙ`.
fn fold_onto<'s>(
    it: &mut Interner,
    segs: impl DoubleEndedIterator<Item = &'s ITerm>,
    b: ITerm,
) -> ITerm {
    segs.rev().fold(b, |acc, seg| {
        it.mk(Tag::FCompose, PayloadRef::None, &[seg.clone(), acc])
    })
}

impl Drop for Interner {
    fn drop(&mut self) {
        // Release nodes largest-first. A parent is strictly larger than any
        // of its children and the table holds every node, so when a node's
        // table reference goes away, all of its children are still pinned by
        // their own (smaller, not-yet-released) table entries: each drop
        // cascades at most one level and deep chains never recurse.
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn icompose_keeps_chains_right_normalized() {
        use crate::parse::parse_func;
        let mut it = Interner::new();
        let left = it.intern_func(&parse_func("(a . b) . c").unwrap());
        // `left` as interned is still left-nested; icompose onto another
        // segment must flatten it.
        let d = it.intern_func(&parse_func("d").unwrap());
        let out = icompose(&mut it, left, d);
        let want = it.intern_func(&parse_func("a . b . c . d").unwrap().normalize());
        assert!(out.ptr_eq(&want));
    }

    #[test]
    fn hash_consing_dedups() {
        let mut it = Interner::new();
        let t = o(prim("age"), prim("addr"));
        let a = it.intern_func(&t);
        let b = it.intern_func(&t);
        assert!(a.ptr_eq(&b));
        assert_eq!(a.id(), b.id());
        // Shared subterm: `age` inside both is one node.
        let c = it.intern_func(&prim("age"));
        assert!(a.kids()[0].ptr_eq(&c));
    }

    #[test]
    fn query_fp_matches_interned_fingerprint() {
        let mut it = Interner::new();
        let mut corpus: Vec<Query> = vec![
            app(Func::Id, ext("P")),
            app(iterate(kp(true), o(prim("city"), prim("addr"))), ext("P")),
            Query::Union(Box::new(ext("P")), Box::new(ext("Q"))),
            Query::Lit(crate::Value::Int(42)),
            Query::Test(oplus(gt(), prim("age")), Box::new(ext("P"))),
            Query::PairQ(
                Box::new(Query::Lit(crate::Value::Str("x".into()))),
                Box::new(ext("P")),
            ),
        ];
        // A deep chain: the arena-free walk must not recurse.
        let mut f = prim("age");
        for _ in 0..50_000 {
            f = o(Func::Id, f);
        }
        corpus.push(app(f, ext("P")));
        for q in &corpus {
            assert_eq!(query_fp(q), it.intern_query(q).fp(), "{}", q.size());
        }
        // Distinct queries get distinct fingerprints (on this corpus).
        let fps: std::collections::BTreeSet<u64> = corpus.iter().map(query_fp).collect();
        assert_eq!(fps.len(), corpus.len());
    }

    #[test]
    fn cached_size_and_depth_agree_with_terms() {
        let mut it = Interner::new();
        for t in [
            Func::Id,
            o(Func::Id, Func::Pi1),
            iterate(kp(true), o(prim("city"), prim("addr"))),
            Func::Cond(
                Box::new(kp(false)),
                Box::new(prim("a")),
                Box::new(o(prim("b"), prim("c"))),
            ),
        ] {
            let i = it.intern_func(&t);
            assert_eq!(i.size(), t.size(), "{t}");
            assert_eq!(i.depth(), t.depth(), "{t}");
        }
        let q = app(iterate(kp(true), prim("age")), ext("P"));
        let iq = it.intern_query(&q);
        assert_eq!(iq.size(), q.size());
        assert_eq!(iq.depth(), q.depth());
    }

    #[test]
    fn round_trip_all_levels() {
        let mut it = Interner::new();
        let f = iterate(oplus(gt(), prim("age")), o(prim("city"), prim("addr")));
        assert_eq!(it.intern_func(&f).to_func(), f);
        let p = Pred::CurryP(
            Box::new(Pred::Conv(Box::new(gt()))),
            Box::new(Query::Lit(Value::Int(7))),
        );
        assert_eq!(it.intern_pred(&p).to_pred(), p);
        let q = Query::Test(p.clone(), Box::new(app(f.clone(), ext("P"))));
        assert_eq!(it.intern_query(&q).to_query(), q);
    }

    #[test]
    fn equal_terms_share_fingerprint_distinct_terms_rarely_do() {
        let mut it = Interner::new();
        let a = it.intern_func(&o(prim("age"), prim("addr")));
        let b = it.intern_func(&o(prim("age"), prim("addr")));
        let c = it.intern_func(&o(prim("addr"), prim("age")));
        assert_eq!(a.fp(), b.fp());
        assert_ne!(a.fp(), c.fp(), "kid order must influence the fingerprint");
    }

    #[test]
    fn deep_chain_roundtrip_and_drop() {
        // 10k ∘-segments: interning, reification and interner drop must all
        // be stack-safe. The reified term is torn down manually because the
        // boxed representation's drop glue recurses.
        const N: usize = 10_000;
        let mut f = prim("age");
        for _ in 0..N {
            f = o(Func::Id, f);
        }
        // 1 leaf + N × (∘ node + id node); the boxed `size()` would itself
        // recurse, so the expectation is arithmetic.
        let want = 1 + 2 * N;
        let mut it = Interner::new();
        let i = it.intern_func(&f);
        assert_eq!(i.size(), want);
        let back = i.to_func();
        // Count with an explicit reference stack; dropping the deep terms
        // afterwards is safe now that `Func` has a worklist `Drop`.
        for t in [&f, &back] {
            let mut nodes = 0usize;
            let mut work = vec![t];
            while let Some(x) = work.pop() {
                nodes += 1;
                if let Func::Compose(a, b) = x {
                    work.push(a);
                    work.push(b);
                }
            }
            assert_eq!(nodes, want);
        }
        drop(f);
        drop(back);
        drop(i);
        drop(it); // must not overflow
    }

    #[test]
    fn clear_resets_the_arena_and_survives_deep_chains() {
        const N: usize = 10_000;
        let mut f = prim("age");
        for _ in 0..N {
            f = o(Func::Id, f);
        }
        let mut it = Interner::new();
        let i = it.intern_func(&f);
        // Distinct nodes: one `age`, one `id`, N compose spine nodes.
        assert_eq!(it.len(), N + 2);
        drop(i); // no out-of-arena handles may survive a clear
        it.clear(); // must not overflow on the deep spine
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
        // The arena restarts cleanly: interning after a clear rebuilds.
        let a = it.intern_func(&prim("age"));
        assert_eq!(it.len(), 1);
        assert_eq!(a.to_func(), prim("age"));
        drop(f);
    }
}
