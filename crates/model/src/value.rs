//! Runtime values: typed constants and labelled nulls.
//!
//! The paper's model (Section 2.1) uses three disjoint countable sets:
//! constants `C`, labelled nulls `N` and variables `V`. Variables live in
//! [`crate::term::Term`]; this module holds the first two. Labelled nulls are
//! the ν values invented by the chase to witness existential quantifiers, and
//! the whole termination machinery of Section 3 revolves around renaming them
//! consistently, so they are first-class values here.

use crate::sync::RwLock;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// Identifier of a labelled null (ν_i).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NullId(pub u64);

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ν{}", self.0)
    }
}

/// Factory of fresh labelled nulls.
///
/// Each chase / reasoning session owns one factory so that null identity is
/// deterministic given a deterministic rule-application order.
#[derive(Debug, Default)]
pub struct NullFactory {
    next: AtomicU64,
}

impl NullFactory {
    /// Create a factory starting at ν0.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// Mint a fresh labelled null.
    pub fn fresh(&self) -> NullId {
        NullId(self.next.fetch_add(1, AtomicOrdering::Relaxed))
    }

    /// Mint a fresh labelled null wrapped as a [`Value`].
    pub fn fresh_value(&self) -> Value {
        Value::Null(self.fresh())
    }

    /// Number of nulls produced so far.
    pub fn produced(&self) -> u64 {
        self.next.load(AtomicOrdering::Relaxed)
    }
}

/// An interned [`Value`]: 4 bytes, `Copy`, compares and hashes as an integer.
///
/// Two `ValueId`s are equal exactly when the values they intern are equal
/// under [`Value`]'s total equality (which identifies `Int(2)` and
/// `Float(2.0)`), so an equi-join on `ValueId`s is an equi-join on values.
/// This is the currency of the storage layer's row representation and of the
/// engine's probe path: relations store rows of `ValueId`s and the
/// slot-machine join compares ids, materialising `Value`s only at the API
/// boundary. Obtain one with [`intern_value`] and convert back with
/// [`resolve_value`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueId(u32);

impl ValueId {
    /// Raw bits of this id. The table is sharded by value hash, so this is
    /// an opaque encoding (shard number in the low bits, position within the
    /// shard above them), not a dense insertion index — use it only as a
    /// compact key.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// log2 of the shard count. The shard number lives in the low bits of every
/// [`ValueId`], so resolving never has to consult a directory.
const VALUE_SHARD_BITS: u32 = 4;
/// Number of interner shards (a power of two so `hash & mask` selects one).
const VALUE_SHARDS: usize = 1 << VALUE_SHARD_BITS;
const VALUE_SHARD_MASK: u32 = (VALUE_SHARDS as u32) - 1;

#[derive(Default)]
struct ValueShard {
    /// value -> local index within this shard's `values` table.
    map: HashMap<Value, u32>,
    values: Vec<Value>,
    /// Order key of each value, computed once at intern time so probe paths
    /// can compare ids order-wise without resolving (see [`order_key_of`]).
    keys: Vec<OrderKey>,
}

impl ValueShard {
    /// Intern under an already-held write lock on this shard.
    fn intern(&mut self, shard_no: u32, v: &Value) -> ValueId {
        match self.map.get(v) {
            Some(&local) => ValueId::compose(shard_no, local),
            None => {
                assert!(
                    self.values.len() < (u32::MAX >> VALUE_SHARD_BITS) as usize,
                    "value interner shard overflow"
                );
                let local = self.values.len() as u32;
                self.keys.push(v.order_key());
                self.values.push(v.clone());
                self.map.insert(v.clone(), local);
                ValueId::compose(shard_no, local)
            }
        }
    }
}

/// The sharded global value table: one lock per shard, selected by the
/// value's hash, so concurrent intern/resolve traffic on different values
/// contends only `1/VALUE_SHARDS` of the time and there is no global write
/// lock on the hot intern path at all.
struct ValueInterner {
    shards: [RwLock<ValueShard>; VALUE_SHARDS],
}

fn value_interner() -> &'static ValueInterner {
    static INTERNER: OnceLock<ValueInterner> = OnceLock::new();
    INTERNER.get_or_init(|| ValueInterner {
        shards: std::array::from_fn(|_| RwLock::new(ValueShard::default())),
    })
}

/// Shard selector. Derived from [`Value`]'s own `Hash`, which already
/// normalises the cross-variant equality classes (`Int(2)` hashes like
/// `Float(2.0)`), so equal values always land in the same shard.
fn value_shard_of(v: &Value) -> u32 {
    let mut h = crate::fxhash::FxHasher::default();
    v.hash(&mut h);
    (std::hash::Hasher::finish(&h) as u32) & VALUE_SHARD_MASK
}

impl ValueId {
    #[inline]
    fn compose(shard_no: u32, local: u32) -> ValueId {
        ValueId((local << VALUE_SHARD_BITS) | shard_no)
    }

    #[inline]
    fn shard_no(self) -> u32 {
        self.0 & VALUE_SHARD_MASK
    }

    #[inline]
    fn local(self) -> u32 {
        self.0 >> VALUE_SHARD_BITS
    }
}

/// Intern a value, returning its [`ValueId`]. Idempotent for the lifetime of
/// the process: values equal under [`Value`]'s `Eq` always yield the same id
/// (each shard keeps the representation interned first, so `Float(2.0)`
/// resolves to `Int(2)` if the integer arrived first — consistent with how
/// the set-semantics store always kept the first-inserted representative).
///
/// The table is sharded by value hash: the fast path takes one read lock on
/// one shard, and a miss upgrades to a write lock on that shard only —
/// interning never serialises the whole table.
///
/// The table is process-global and append-only: entries are never reclaimed.
/// In particular, labelled nulls minted for candidate facts that a
/// termination strategy then suppresses stay in the table; a scoped
/// (per-session) interner is a known follow-up (see ROADMAP "Performance").
pub fn intern_value(v: &Value) -> ValueId {
    let shard_no = value_shard_of(v);
    let shard = &value_interner().shards[shard_no as usize];
    {
        let guard = shard.read();
        if let Some(&local) = guard.map.get(v) {
            return ValueId::compose(shard_no, local);
        }
    }
    shard.write().intern(shard_no, v)
}

/// Look up the id of a value **without** interning it: `None` means the
/// value has never been interned, so no stored row can contain it — the
/// fast negative path for membership probes.
pub fn find_value_id(v: &Value) -> Option<ValueId> {
    let shard_no = value_shard_of(v);
    value_interner().shards[shard_no as usize]
        .read()
        .map
        .get(v)
        .copied()
        .map(|local| ValueId::compose(shard_no, local))
}

/// Resolve a [`ValueId`] back to the value it interns (a clone out of the
/// owning shard's table; strings are `Arc`-backed so this is cheap).
///
/// # Panics
/// Panics if the id was not produced by [`intern_value`] in this process
/// (impossible through the public API).
pub fn resolve_value(id: ValueId) -> Value {
    value_interner().shards[id.shard_no() as usize]
        .read()
        .values[id.local() as usize]
        .clone()
}

/// Resolve a whole row of ids, acquiring the read lock of each shard the
/// row touches at most once — the batched form of [`resolve_value`] the
/// storage layer uses to materialise facts. Guards are taken in **ascending
/// shard order**: overlapping multi-guard holders all lock in the same
/// global order, so they can never form a cycle with queued writers (std's
/// `RwLock` makes no reader/writer priority guarantee).
pub fn resolve_values(ids: &[ValueId]) -> Vec<Value> {
    let interner = value_interner();
    let mut needed = [false; VALUE_SHARDS];
    for id in ids {
        needed[id.shard_no() as usize] = true;
    }
    let guards: [Option<std::sync::RwLockReadGuard<'_, ValueShard>>; VALUE_SHARDS] =
        std::array::from_fn(|shard_no| needed[shard_no].then(|| interner.shards[shard_no].read()));
    ids.iter()
        .map(|id| {
            guards[id.shard_no() as usize]
                .as_ref()
                .expect("guard held")
                .values[id.local() as usize]
                .clone()
        })
        .collect()
}

/// Intern a whole row of values, acquiring each shard's read lock at most
/// once — the batched form of [`intern_value`]. The common case (every value
/// already interned) touches no write lock; rows carrying fresh values fall
/// back to per-value interning against the owning shards only.
pub fn intern_values(values: &[Value]) -> Box<[ValueId]> {
    let interner = value_interner();
    let shards: Vec<u32> = values.iter().map(value_shard_of).collect();
    let mut out = Vec::with_capacity(values.len());
    {
        // Ascending-shard-order guard acquisition, for the same
        // deadlock-freedom argument as in [`resolve_values`].
        let mut needed = [false; VALUE_SHARDS];
        for &shard_no in &shards {
            needed[shard_no as usize] = true;
        }
        let guards: [Option<std::sync::RwLockReadGuard<'_, ValueShard>>; VALUE_SHARDS] =
            std::array::from_fn(|shard_no| {
                needed[shard_no].then(|| interner.shards[shard_no].read())
            });
        let mut all_known = true;
        for (v, &shard_no) in values.iter().zip(&shards) {
            let guard = guards[shard_no as usize].as_ref().expect("guard held");
            match guard.map.get(v) {
                Some(&local) => out.push(ValueId::compose(shard_no, local)),
                None => {
                    all_known = false;
                    break;
                }
            }
        }
        if all_known {
            return out.into_boxed_slice();
        }
    }
    values.iter().map(intern_value).collect()
}

/// Intern the argument rows of a batch, in order, appending every row's ids
/// back to back to `out` (a flat chunk: the caller splits it by the rows'
/// lengths), taking every shard's lock once for the whole batch: the
/// bulk-load form of [`intern_values`]. Ids are exactly those repeated
/// [`intern_values`] calls would assign — values new to the table are
/// interned in row order, argument order. A batch of known values runs under
/// read guards; from the first unknown value on, the rest of the batch runs
/// under write guards. Guards are taken in ascending shard order, like
/// [`resolve_values`].
pub fn intern_rows<'a, I>(rows: I, out: &mut Vec<ValueId>)
where
    I: IntoIterator<Item = &'a [Value]>,
{
    let interner = value_interner();
    let rows: Vec<&[Value]> = rows.into_iter().collect();
    let mut done = 0;
    {
        let guards: [std::sync::RwLockReadGuard<'_, ValueShard>; VALUE_SHARDS] =
            std::array::from_fn(|shard_no| interner.shards[shard_no].read());
        'rows: for row in &rows {
            let start = out.len();
            for v in *row {
                let shard_no = value_shard_of(v);
                match guards[shard_no as usize].map.get(v) {
                    Some(&local) => out.push(ValueId::compose(shard_no, local)),
                    None => {
                        out.truncate(start);
                        break 'rows;
                    }
                }
            }
            done += 1;
        }
    }
    if done < rows.len() {
        let mut guards: [std::sync::RwLockWriteGuard<'_, ValueShard>; VALUE_SHARDS] =
            std::array::from_fn(|shard_no| interner.shards[shard_no].write());
        for row in &rows[done..] {
            out.extend(row.iter().map(|v| {
                let shard_no = value_shard_of(v);
                guards[shard_no as usize].intern(shard_no, v)
            }));
        }
    }
}

impl Value {
    /// Intern this value (see [`intern_value`]).
    pub fn interned(&self) -> ValueId {
        intern_value(self)
    }
}

/// An **order-preserving probe key**: a compact `(class, bits)` pair whose
/// `Ord` is a monotone approximation of the comparison order conditions use
/// ([`crate::expr::CmpOp`]'s effective order: numeric comparison across
/// `Int`/`Float`, then [`Value`]'s cross-variant total order).
///
/// The two guarantees the sorted-run index layer builds on:
///
/// * **monotone** — `key(a) < key(b)` implies `a` sorts strictly before `b`
///   (so everything strictly inside a key range satisfies the comparison
///   without resolving a single value);
/// * **equality-coarse** — `a == b` implies `key(a) == key(b)` (so only the
///   *boundary* entries whose key ties the bound's key ever need an exact,
///   resolved comparison).
///
/// Keys are lossy: distinct values may share a key (strings sharing an
/// 8-byte prefix, integers beyond 2^53 colliding as `f64`, composite
/// list/set values, which all map to one key per class). Ties are always
/// settled by resolving the values, never assumed equal.
///
/// Class layout mirrors the cross-variant order of [`Value::cmp`]:
/// numerics (`Int` and `Float` share a class, like they share an equality
/// relation) < strings < booleans < dates < labelled nulls < lists < sets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OrderKey {
    class: u8,
    bits: u64,
}

/// Class byte of numeric values (`Int` and `Float` merged).
const KEY_CLASS_NUMERIC: u8 = 0;
/// Class byte of string values.
const KEY_CLASS_STR: u8 = 1;
/// Class byte of booleans.
const KEY_CLASS_BOOL: u8 = 2;
/// Class byte of dates.
const KEY_CLASS_DATE: u8 = 3;
/// Class byte of labelled nulls (excluded from order comparisons: ordering
/// a null against anything is `false` under `CmpOp`).
const KEY_CLASS_NULL: u8 = 4;
/// Class byte of lists.
const KEY_CLASS_LIST: u8 = 5;
/// Class byte of sets.
const KEY_CLASS_SET: u8 = 6;

/// Monotone `f64` → `u64` bit trick: flip all bits of negatives, flip the
/// sign bit of positives, giving `total_cmp` order as unsigned comparison.
/// `-0.0` is normalised to `0.0` first because `CmpOp`'s numeric comparison
/// (IEEE `partial_cmp`) treats them as equal while `total_cmp` does not.
fn f64_key_bits(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

impl OrderKey {
    /// Is this the key of a labelled null? Null-class entries never satisfy
    /// an ordering comparison and are skipped by index range scans.
    pub fn is_null_class(self) -> bool {
        self.class == KEY_CLASS_NULL
    }
}

impl Value {
    /// The order-preserving probe key of this value (see [`OrderKey`]).
    pub fn order_key(&self) -> OrderKey {
        let (class, bits) = match self {
            Value::Int(i) => (KEY_CLASS_NUMERIC, f64_key_bits(*i as f64)),
            Value::Float(f) => (KEY_CLASS_NUMERIC, f64_key_bits(*f)),
            Value::Str(s) => {
                let bytes = s.as_bytes();
                let mut prefix = [0u8; 8];
                let n = bytes.len().min(8);
                prefix[..n].copy_from_slice(&bytes[..n]);
                (KEY_CLASS_STR, u64::from_be_bytes(prefix))
            }
            Value::Bool(b) => (KEY_CLASS_BOOL, *b as u64),
            Value::Date(d) => (KEY_CLASS_DATE, (*d as u64) ^ (1 << 63)),
            Value::Null(n) => (KEY_CLASS_NULL, n.0),
            Value::List(_) => (KEY_CLASS_LIST, 0),
            Value::Set(_) => (KEY_CLASS_SET, 0),
        };
        OrderKey { class, bits }
    }
}

/// The order key of an interned value, read from the per-shard key cache
/// (computed once at intern time — no value is resolved).
pub fn order_key_of(id: ValueId) -> OrderKey {
    value_interner().shards[id.shard_no() as usize].read().keys[id.local() as usize]
}

/// Order keys of a whole row of ids, acquiring each shard's read lock at
/// most once (the batched form of [`order_key_of`], used when the storage
/// layer flushes an index tail into a sorted run). Guards are taken in
/// ascending shard order, like [`resolve_values`].
pub fn order_keys_of(ids: &[ValueId]) -> Vec<OrderKey> {
    let interner = value_interner();
    let mut needed = [false; VALUE_SHARDS];
    for id in ids {
        needed[id.shard_no() as usize] = true;
    }
    let guards: [Option<std::sync::RwLockReadGuard<'_, ValueShard>>; VALUE_SHARDS] =
        std::array::from_fn(|shard_no| needed[shard_no].then(|| interner.shards[shard_no].read()));
    ids.iter()
        .map(|id| {
            guards[id.shard_no() as usize]
                .as_ref()
                .expect("guard held")
                .keys[id.local() as usize]
        })
        .collect()
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", resolve_value(*self))
    }
}

/// A runtime value: a constant of one of the supported Vadalog data types
/// (Section 5, "Data Types") or a labelled null.
///
/// `Value` implements total `Ord`/`Hash` (floats compare by bit pattern via a
/// total order) so it can be used directly as a join/index key.
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with a total order (NaN sorts last).
    Float(f64),
    /// Interned-ish string constant (cheap to clone).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Date, stored as days since the Unix epoch.
    Date(i64),
    /// Labelled null ν_i produced by existential quantification.
    Null(NullId),
    /// Composite list value.
    List(Vec<Value>),
    /// Composite set value (used by `munion` aggregation).
    Set(BTreeSet<Value>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Build a string value from an owned `String`.
    pub fn string(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }

    /// Is this value a labelled null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Is this value ground, i.e. free of labelled nulls (recursively)?
    pub fn is_ground(&self) -> bool {
        match self {
            Value::Null(_) => false,
            Value::List(vs) => vs.iter().all(Value::is_ground),
            Value::Set(vs) => vs.iter().all(Value::is_ground),
            _ => true,
        }
    }

    /// Numeric view of the value, if it is an `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A small integer tag identifying the variant, used for cross-variant
    /// ordering.
    fn tag(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
            Value::Date(_) => 4,
            Value::Null(_) => 5,
            Value::List(_) => 6,
            Value::Set(_) => 7,
        }
    }

    /// Compare two numeric values across Int/Float; `None` when either side
    /// is not numeric.
    pub fn numeric_cmp(&self, other: &Value) -> Option<Ordering> {
        let (a, b) = (self.as_f64()?, other.as_f64()?);
        a.partial_cmp(&b)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed numeric comparisons use numeric order so joins over
            // heterogeneous columns behave predictably.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Null(a), Null(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Set(a), Set(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                // Hash floats that are whole numbers like the equal Int so
                // Int(2) and Float(2.0) (which compare equal) hash equally.
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    0u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    1u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
            Value::Null(n) => {
                5u8.hash(state);
                n.hash(state);
            }
            Value::List(vs) => {
                6u8.hash(state);
                vs.hash(state);
            }
            Value::Set(vs) => {
                7u8.hash(state);
                for v in vs {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "date({d})"),
            Value::Null(n) => write!(f, "{n}"),
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Set(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::string(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_factory_is_monotonic_and_unique() {
        let f = NullFactory::new();
        let a = f.fresh();
        let b = f.fresh();
        assert_ne!(a, b);
        assert!(b.0 > a.0);
        assert_eq!(f.produced(), 2);
    }

    #[test]
    fn ground_detection_recurses_into_composites() {
        let f = NullFactory::new();
        let ground = Value::List(vec![Value::Int(1), Value::str("x")]);
        let non_ground = Value::List(vec![Value::Int(1), f.fresh_value()]);
        assert!(ground.is_ground());
        assert!(!non_ground.is_ground());
    }

    #[test]
    fn mixed_numeric_equality_and_hash_agree() {
        let a = Value::Int(2);
        let b = Value::Float(2.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let vs = vec![
            Value::Int(3),
            Value::str("abc"),
            Value::Bool(true),
            Value::Null(NullId(0)),
            Value::Float(1.5),
        ];
        let mut sorted = vs.clone();
        sorted.sort();
        // sorting must not panic and must be idempotent
        let mut again = sorted.clone();
        again.sort();
        assert_eq!(sorted, again);
    }

    #[test]
    fn numeric_cmp_compares_across_int_and_float() {
        assert_eq!(
            Value::Int(1).numeric_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("x").numeric_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("HSBC").to_string(), "\"HSBC\"");
        assert_eq!(Value::Null(NullId(7)).to_string(), "ν7");
    }

    #[test]
    fn value_interning_is_idempotent_and_respects_equality() {
        let a = intern_value(&Value::str("interner-test-a"));
        let b = intern_value(&Value::str("interner-test-a"));
        let c = intern_value(&Value::str("interner-test-b"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(resolve_value(a), Value::str("interner-test-a"));
        // cross-variant numeric equality maps to one id
        let i = intern_value(&Value::Int(271_828));
        let f = intern_value(&Value::Float(271_828.0));
        assert_eq!(i, f);
        // nulls intern like any other value
        let n = intern_value(&Value::Null(NullId(u64::MAX - 17)));
        assert_eq!(resolve_value(n), Value::Null(NullId(u64::MAX - 17)));
    }

    #[test]
    fn concurrent_interning_across_shards_is_consistent() {
        let values: Vec<Value> = (0..64)
            .map(|i| Value::str(&format!("shard-stress-{i}")))
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let vs = values.clone();
                std::thread::spawn(move || vs.iter().map(intern_value).collect::<Vec<ValueId>>())
            })
            .collect();
        let ids: Vec<Vec<ValueId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in ids.windows(2) {
            assert_eq!(w[0], w[1], "racing threads must agree on every id");
        }
        for (v, id) in values.iter().zip(&ids[0]) {
            assert_eq!(&resolve_value(*id), v);
            assert_eq!(find_value_id(v), Some(*id));
        }
    }

    #[test]
    fn find_value_id_does_not_intern() {
        let probe = Value::str("never-interned-probe-value-xyzzy");
        assert_eq!(find_value_id(&probe), None);
        let id = intern_value(&probe);
        assert_eq!(find_value_id(&probe), Some(id));
    }

    #[test]
    fn order_keys_are_monotone_and_equality_coarse() {
        let f = NullFactory::new();
        let values = vec![
            Value::Float(f64::NEG_INFINITY),
            Value::Int(-3),
            Value::Float(-0.5),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.25),
            Value::Int(7),
            Value::Float(f64::INFINITY),
            Value::str(""),
            Value::str("a"),
            Value::str("ab"),
            Value::str("b"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Date(-10),
            Value::Date(10),
            f.fresh_value(),
            Value::List(vec![Value::Int(1)]),
            Value::Set(BTreeSet::from([Value::Int(2)])),
        ];
        for a in &values {
            for b in &values {
                let (ka, kb) = (a.order_key(), b.order_key());
                if a == b {
                    assert_eq!(ka, kb, "{a} == {b} but keys differ");
                }
                if ka < kb {
                    assert_eq!(
                        a.cmp(b),
                        Ordering::Less,
                        "key({a}) < key({b}) but {a} !< {b}"
                    );
                }
            }
        }
        // -0.0 is normalised onto 0.0's key so boundary checks catch it
        assert_eq!(
            Value::Float(-0.0).order_key(),
            Value::Float(0.0).order_key()
        );
        // lossy cases share a key but stay ordered by the exact comparison
        assert_eq!(
            Value::str("prefix-shared-1").order_key(),
            Value::str("prefix-shared-2").order_key()
        );
        assert!(Value::Null(NullId(3)).order_key().is_null_class());
        assert!(!Value::Int(3).order_key().is_null_class());
    }

    #[test]
    fn order_key_of_reads_the_intern_time_cache() {
        let v = Value::str("order-key-cache-probe");
        let id = intern_value(&v);
        assert_eq!(order_key_of(id), v.order_key());
        let ids: Vec<ValueId> = [Value::Int(11), Value::Float(2.5), Value::str("zz")]
            .iter()
            .map(intern_value)
            .collect();
        let keys = order_keys_of(&ids);
        assert_eq!(keys.len(), 3);
        for (id, key) in ids.iter().zip(&keys) {
            assert_eq!(order_key_of(*id), *key);
            assert_eq!(resolve_value(*id).order_key(), *key);
        }
    }

    #[test]
    fn sets_and_lists_compare_structurally() {
        let s1 = Value::Set(BTreeSet::from([Value::Int(1), Value::Int(2)]));
        let s2 = Value::Set(BTreeSet::from([Value::Int(2), Value::Int(1)]));
        assert_eq!(s1, s2);
        let l1 = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let l2 = Value::List(vec![Value::Int(2), Value::Int(1)]);
        assert_ne!(l1, l2);
    }
}
