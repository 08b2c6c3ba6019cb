//! A versioned, sequential checkpoint codec.
//!
//! Checkpoint artifacts are plain text: one `key=value` line per field,
//! written and read back in the same fixed order. The reader is strict — it
//! verifies every key as it goes, so a truncated, reordered, or
//! wrong-version artifact fails loudly at the first mismatch instead of
//! silently restoring garbage state.
//!
//! [`Ckpt`] drives both directions from one codec function per type, so
//! each field's key, encoding, and load-side check appear exactly once;
//! [`CkptWriter`] and [`CkptReader`] are the one-way primitives beneath it.
//!
//! Values never lose precision: `f64` fields are stored as the hexadecimal
//! IEEE-754 bit pattern (`f<16 hex digits>`), not as a decimal rendering, so
//! a restored simulation is *bit-identical* to the one that was saved.
//! Strings must be newline-free (simulation state only carries identifiers
//! and labels, never free text).
//!
//! # Examples
//!
//! ```
//! use cdnc_simcore::ckpt::{CkptReader, CkptWriter};
//!
//! let mut w = CkptWriter::new("demo");
//! w.u64("count", 3);
//! w.f64("rate", 0.25);
//! let artifact = w.finish();
//!
//! let mut r = CkptReader::new(&artifact, "demo").unwrap();
//! assert_eq!(r.u64("count").unwrap(), 3);
//! assert_eq!(r.f64("rate").unwrap(), 0.25);
//! r.done().unwrap();
//! ```

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Display;

/// Artifact format version; bumped on any incompatible layout change.
pub const CKPT_VERSION: u32 = 1;

/// Sub-keys of the four [`SimRng`] state words.
const RNG_WORDS: [&str; 4] = ["_s0", "_s1", "_s2", "_s3"];

/// A checkpoint decode failure: what was expected, what was found, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError(pub String);

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint decode error: {}", self.0)
    }
}

impl std::error::Error for CkptError {}

/// Sequential writer for one checkpoint artifact.
#[derive(Debug)]
pub struct CkptWriter {
    out: String,
}

impl CkptWriter {
    /// Starts an artifact: writes the version header and the artifact
    /// `kind` tag (e.g. `"cdn-sim"`), which the reader verifies.
    pub fn new(kind: &str) -> Self {
        let mut w = CkptWriter { out: String::new() };
        w.u64("ckpt_version", CKPT_VERSION as u64);
        w.str("ckpt_kind", kind);
        w
    }

    /// Appends `<key><sub>=<value>` and a newline to the buffer.
    fn line(&mut self, key: &str, sub: &str, value: &str) {
        debug_assert!(!key.contains(['=', '\n']), "bad checkpoint key {key:?}");
        for part in [key, sub, "=", value, "\n"] {
            self.out.push_str(part);
        }
    }

    /// Writes `value` in decimal, rendered on the stack: no per-field
    /// allocation, and cheaper than `write!` through `fmt`.
    fn u64_at(&mut self, key: &str, sub: &str, value: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut rest = value;
        loop {
            i -= 1;
            digits[i] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.line(key, sub, std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.u64_at(key, "", value);
    }

    /// Writes a boolean field (`0` / `1`).
    pub fn bool(&mut self, key: &str, value: bool) {
        self.u64(key, value as u64);
    }

    /// Writes a float field as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, key: &str, value: f64) {
        self.f64_at(key, "", value);
    }

    fn f64_at(&mut self, key: &str, sub: &str, value: f64) {
        let bits = value.to_bits();
        let mut hex = [b'f'; 17];
        for (i, digit) in hex[1..].iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
        self.line(key, sub, std::str::from_utf8(&hex).expect("ASCII hex digits"));
    }

    /// Writes a simulated instant (stored in integer microseconds).
    pub fn time(&mut self, key: &str, value: SimTime) {
        self.u64(key, value.as_micros());
    }

    /// Writes a newline-free string field.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains a newline — checkpoint state only carries
    /// identifiers and labels, never free text.
    pub fn str(&mut self, key: &str, value: &str) {
        assert!(!value.contains('\n'), "checkpoint string value contains a newline");
        self.line(key, "", value);
    }

    /// Writes a [`SimRng`] mid-stream snapshot as six fields under `key`
    /// (`<key>_seed`, `<key>_forks`, `<key>_s0..s3`).
    pub fn rng(&mut self, key: &str, rng: &SimRng) {
        let (seed, forks, state) = rng.snapshot();
        self.u64_at(key, "_seed", seed);
        self.u64_at(key, "_forks", forks);
        for (sub, word) in RNG_WORDS.iter().zip(state) {
            self.u64_at(key, sub, word);
        }
    }

    /// Finishes the artifact and returns its text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Strict sequential reader over a checkpoint artifact.
#[derive(Debug)]
pub struct CkptReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
    /// An upper bound on the artifact's lines (newlines + 1): a collection
    /// cannot hold more elements than there are lines left, which bounds
    /// every load-side allocation by the artifact's size.
    total_lines: usize,
}

impl<'a> CkptReader<'a> {
    /// Opens an artifact, verifying the version header and `kind` tag.
    pub fn new(text: &'a str, kind: &str) -> Result<Self, CkptError> {
        let mut r = CkptReader {
            lines: text.lines(),
            line_no: 0,
            total_lines: text.bytes().filter(|&b| b == b'\n').count() + 1,
        };
        let version = r.u64("ckpt_version")?;
        if version != CKPT_VERSION as u64 {
            return Err(CkptError(format!(
                "unsupported checkpoint version {version} (this build reads {CKPT_VERSION})"
            )));
        }
        let found = r.str("ckpt_kind")?;
        if found != kind {
            return Err(CkptError(format!("artifact kind {found:?}, expected {kind:?}")));
        }
        Ok(r)
    }

    /// An error located at the line read last.
    fn error(&self, what: impl Display) -> CkptError {
        CkptError(format!("line {}: {what}", self.line_no))
    }

    fn value(&mut self, key: &str, sub: &str) -> Result<&'a str, CkptError> {
        self.line_no += 1;
        let line = self.lines.next().ok_or_else(|| {
            CkptError(format!("unexpected end of artifact, wanted key \"{key}{sub}\""))
        })?;
        let (found, value) = line
            .split_once('=')
            .ok_or_else(|| self.error(format_args!("malformed line {line:?}")))?;
        if found.strip_prefix(key) != Some(sub) {
            return Err(self.error(format_args!("found key {found:?}, expected \"{key}{sub}\"")));
        }
        Ok(value)
    }

    fn u64_at(&mut self, key: &str, sub: &str) -> Result<u64, CkptError> {
        let value = self.value(key, sub)?;
        value.parse().map_err(|_| self.error(format_args!("bad u64 {value:?}")))
    }

    /// Reads the next field as an unsigned integer, verifying its key.
    pub fn u64(&mut self, key: &str) -> Result<u64, CkptError> {
        self.u64_at(key, "")
    }

    /// Reads the next field as a boolean, verifying its key.
    pub fn bool(&mut self, key: &str) -> Result<bool, CkptError> {
        match self.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.error(format_args!("bad bool {other}"))),
        }
    }

    /// Reads the next field as an exact-bit float, verifying its key.
    pub fn f64(&mut self, key: &str) -> Result<f64, CkptError> {
        self.f64_at(key, "")
    }

    fn f64_at(&mut self, key: &str, sub: &str) -> Result<f64, CkptError> {
        let value = self.value(key, sub)?;
        let bits = value
            .strip_prefix('f')
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error(format_args!("bad f64 bits {value:?}")))?;
        Ok(f64::from_bits(bits))
    }

    /// Reads the next field as a simulated instant, verifying its key.
    pub fn time(&mut self, key: &str) -> Result<SimTime, CkptError> {
        Ok(SimTime::from_micros(self.u64(key)?))
    }

    /// Reads the next field as a string, verifying its key.
    pub fn str(&mut self, key: &str) -> Result<&'a str, CkptError> {
        self.value(key, "")
    }

    /// Reads a [`SimRng`] snapshot written by [`CkptWriter::rng`]; the
    /// rebuilt generator continues the saved draw and fork sequences
    /// exactly.
    pub fn rng(&mut self, key: &str) -> Result<SimRng, CkptError> {
        let seed = self.u64_at(key, "_seed")?;
        let forks = self.u64_at(key, "_forks")?;
        let mut state = [0u64; 4];
        for (word, sub) in state.iter_mut().zip(RNG_WORDS) {
            *word = self.u64_at(key, sub)?;
        }
        Ok(SimRng::from_snapshot(seed, forks, state))
    }

    /// Verifies the artifact is fully consumed — trailing state would mean
    /// the reader and writer disagree about the layout.
    pub fn done(&mut self) -> Result<(), CkptError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(CkptError(format!("trailing artifact line {line:?}"))),
        }
    }
}

/// One codec for both directions: a type's `ckpt(&mut self, c)` function
/// names each saved field once, and the same call sequence writes the
/// artifact ([`Ckpt::save`]) or reads it back ([`Ckpt::load`]).
///
/// Every field method takes the value by `&mut`. Saving writes it; loading
/// reads the field, checks it — key, encoding, range, and for ids and
/// lengths the bound the caller's structure imposes — and only then
/// overwrites the value in place. Collection lengths are checked against
/// the lines left in the artifact before anything is allocated, so a
/// tampered artifact fails with a [`CkptError`] instead of restoring
/// garbage, panicking on an out-of-range index, or exhausting memory.
///
/// # Examples
///
/// ```
/// use cdnc_simcore::ckpt::{Ckpt, CkptError};
///
/// #[derive(Default)]
/// struct Node { hops: u64, peers: Vec<u32> }
///
/// impl Node {
///     fn ckpt(&mut self, c: &mut Ckpt<'_>, nodes: usize) -> Result<(), CkptError> {
///         c.u64("hops", &mut self.hops)?;
///         c.list("peers", &mut self.peers, |c, p| c.index("peer", p, nodes))
///     }
/// }
///
/// let mut node = Node { hops: 3, peers: vec![1, 2] };
/// let mut c = Ckpt::save("demo");
/// node.ckpt(&mut c, 4).unwrap();
/// let artifact = c.finish();
///
/// let mut restored = Node::default();
/// let mut c = Ckpt::load(&artifact, "demo").unwrap();
/// restored.ckpt(&mut c, 4).unwrap();
/// c.done().unwrap();
/// assert_eq!((restored.hops, restored.peers), (3, vec![1, 2]));
///
/// // A peer id past the node count is rejected, not restored.
/// let mut c = Ckpt::load(&artifact, "demo").unwrap();
/// assert!(Node::default().ckpt(&mut c, 2).is_err());
/// ```
#[derive(Debug)]
pub enum Ckpt<'a> {
    /// Saving: every field method appends its value.
    Save(CkptWriter),
    /// Loading: every field method reads, checks, and overwrites its value.
    Load(CkptReader<'a>),
}

impl Ckpt<'static> {
    /// Starts saving an artifact of `kind`.
    pub fn save(kind: &str) -> Self {
        Ckpt::Save(CkptWriter::new(kind))
    }
}

impl<'a> Ckpt<'a> {
    /// Starts loading `text`, verifying its version and `kind` tag.
    pub fn load(text: &'a str, kind: &str) -> Result<Self, CkptError> {
        Ok(Ckpt::Load(CkptReader::new(text, kind)?))
    }

    /// `true` when loading — for the few codecs that rebuild a derived
    /// index (or a map from its saved entry list) after reading.
    pub fn is_load(&self) -> bool {
        matches!(self, Ckpt::Load(_))
    }

    /// Returns the saved artifact text.
    ///
    /// # Panics
    ///
    /// Panics when loading — there is no text to hand out.
    pub fn finish(self) -> String {
        match self {
            Ckpt::Save(w) => w.finish(),
            Ckpt::Load(_) => panic!("finish() on a loading checkpoint codec"),
        }
    }

    /// Verifies a load consumed the whole artifact (a no-op when saving).
    pub fn done(&mut self) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(_) => Ok(()),
            Ckpt::Load(r) => r.done(),
        }
    }

    fn error(&self, what: impl Display) -> CkptError {
        match self {
            Ckpt::Save(_) => CkptError(what.to_string()),
            Ckpt::Load(r) => r.error(what),
        }
    }

    /// Saves `value`, or loads the field's value; either way returns it.
    fn raw(&mut self, key: &str, sub: &str, value: u64) -> Result<u64, CkptError> {
        match self {
            Ckpt::Save(w) => {
                w.u64_at(key, sub, value);
                Ok(value)
            }
            Ckpt::Load(r) => r.u64_at(key, sub),
        }
    }

    /// [`Ckpt::raw`], with the result checked `< bound`.
    fn below(&mut self, key: &str, value: u64, bound: u64) -> Result<u64, CkptError> {
        let found = self.raw(key, "", value)?;
        if found >= bound {
            return Err(self.error(format_args!("{key}={found} out of range (must be < {bound})")));
        }
        Ok(found)
    }

    pub(crate) fn u64_at(&mut self, key: &str, sub: &str, v: &mut u64) -> Result<(), CkptError> {
        *v = self.raw(key, sub, *v)?;
        Ok(())
    }

    pub(crate) fn f64_at(&mut self, key: &str, sub: &str, v: &mut f64) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.f64_at(key, sub, *v),
            Ckpt::Load(r) => *v = r.f64_at(key, sub)?,
        }
        Ok(())
    }

    /// An unsigned integer field.
    pub fn u64(&mut self, key: &str, v: &mut u64) -> Result<(), CkptError> {
        self.u64_at(key, "", v)
    }

    /// A `u32` field (stored as `u64`); wider values are rejected, never
    /// truncated.
    pub fn u32(&mut self, key: &str, v: &mut u32) -> Result<(), CkptError> {
        *v = self.below(key, u64::from(*v), 1 << 32)? as u32;
        Ok(())
    }

    /// An id that indexes a structure of `bound` elements (a node, user,
    /// snapshot, or catalog rank); values `>= bound` are rejected.
    pub fn index(&mut self, key: &str, v: &mut u32, bound: usize) -> Result<(), CkptError> {
        *v = self.below(key, u64::from(*v), bound as u64)? as u32;
        Ok(())
    }

    /// An optional id `< bound`, stored as `0` for `None` and `i + 1` for
    /// `Some(i)`.
    pub fn opt_index(
        &mut self,
        key: &str,
        v: &mut Option<u32>,
        bound: usize,
    ) -> Result<(), CkptError> {
        let tag = self.below(key, v.map_or(0, |i| u64::from(i) + 1), bound as u64 + 1)?;
        *v = tag.checked_sub(1).map(|i| i as u32);
        Ok(())
    }

    /// An optional value out of `table`, stored as `0` for `None` and
    /// `position + 1` for `Some`.
    ///
    /// # Panics
    ///
    /// Panics when saving a value missing from `table`.
    pub fn opt_of<T: Copy + PartialEq>(
        &mut self,
        key: &str,
        v: &mut Option<T>,
        table: &[T],
    ) -> Result<(), CkptError> {
        let mut pos = v.map(|x| table.iter().position(|&t| t == x).expect("value in table") as u32);
        self.opt_index(key, &mut pos, table.len())?;
        *v = pos.map(|i| table[i as usize]);
        Ok(())
    }

    /// A boolean field (`0` / `1`).
    pub fn bool(&mut self, key: &str, v: &mut bool) -> Result<(), CkptError> {
        *v = self.below(key, u64::from(*v), 2)? == 1;
        Ok(())
    }

    /// A float field, stored as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, key: &str, v: &mut f64) -> Result<(), CkptError> {
        self.f64_at(key, "", v)
    }

    /// A simulated instant (integer microseconds).
    pub fn time(&mut self, key: &str, v: &mut SimTime) -> Result<(), CkptError> {
        *v = SimTime::from_micros(self.raw(key, "", v.as_micros())?);
        Ok(())
    }

    /// A simulated span (integer microseconds).
    pub fn duration(&mut self, key: &str, v: &mut SimDuration) -> Result<(), CkptError> {
        *v = SimDuration::from_micros(self.raw(key, "", v.as_micros())?);
        Ok(())
    }

    /// A newline-free string field.
    pub fn string(&mut self, key: &str, v: &mut String) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.str(key, v),
            Ckpt::Load(r) => {
                let found = r.str(key)?;
                v.clear();
                v.push_str(found);
            }
        }
        Ok(())
    }

    /// A [`SimRng`] mid-stream snapshot (six fields under `key`).
    pub fn rng(&mut self, key: &str, v: &mut SimRng) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.rng(key, v),
            Ckpt::Load(r) => *v = r.rng(key)?,
        }
        Ok(())
    }

    /// A length fixed by construction (node count, rank count, ...): saved
    /// for verification, and a load that disagrees is rejected.
    pub fn fixed_len(&mut self, key: &str, n: usize) -> Result<(), CkptError> {
        let found = self.raw(key, "", n as u64)?;
        if found != n as u64 {
            return Err(
                self.error(format_args!("{key}: this run has {n}, checkpoint carries {found}"))
            );
        }
        Ok(())
    }

    /// Whether an optional section is present; a load whose artifact
    /// disagrees with this run's configuration is rejected.
    pub fn present(&mut self, key: &str, is_some: bool) -> Result<(), CkptError> {
        let mut found = is_some;
        self.bool(key, &mut found)?;
        if found != is_some {
            let (here, there) =
                if is_some { ("attached", "absent") } else { ("absent", "present") };
            return Err(self.error(format_args!("{key} {here} here but {there} in the checkpoint")));
        }
        Ok(())
    }

    /// A collection length: saved as given; loaded and checked against the
    /// artifact's remaining lines (each element takes at least one).
    fn len(&mut self, key: &str, n: usize) -> Result<usize, CkptError> {
        let found = self.raw(key, "", n as u64)?;
        if let Ckpt::Load(r) = self {
            let left = r.total_lines.saturating_sub(r.line_no);
            if found > left as u64 {
                return Err(r.error(format_args!("{key}={found} exceeds the {left} lines left")));
            }
        }
        Ok(found as usize)
    }

    /// A variable-length list: its length under `key`, then `item` on each
    /// element (loading replaces the contents).
    pub fn list<T: Default>(
        &mut self,
        key: &str,
        items: &mut Vec<T>,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let n = self.len(key, items.len())?;
        if self.is_load() {
            items.clear();
            items.resize_with(n, T::default);
        }
        items.iter_mut().try_for_each(|x| item(self, x))
    }

    /// [`Ckpt::list`] over a deque.
    pub fn deque<T: Default>(
        &mut self,
        key: &str,
        items: &mut VecDeque<T>,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let n = self.len(key, items.len())?;
        if self.is_load() {
            items.clear();
            items.resize_with(n, T::default);
        }
        items.iter_mut().try_for_each(|x| item(self, x))
    }

    /// An ordered map: its length under `key`, then `entry` on each key and
    /// value in key order. Loading replaces the contents and rejects a
    /// duplicate key.
    pub fn map<K: Ord + Clone + Default, V: Default>(
        &mut self,
        key: &str,
        map: &mut BTreeMap<K, V>,
        mut entry: impl FnMut(&mut Self, &mut K, &mut V) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let n = self.len(key, map.len())?;
        if !self.is_load() {
            return map.iter_mut().try_for_each(|(k, v)| entry(self, &mut k.clone(), v));
        }
        map.clear();
        for _ in 0..n {
            let (mut k, mut v) = (K::default(), V::default());
            entry(self, &mut k, &mut v)?;
            if map.insert(k, v).is_some() {
                return Err(self.error(format_args!("duplicate {key} entry")));
            }
        }
        Ok(())
    }

    /// An ordered set: its length under `key`, then `item` on each element
    /// in order. Loading replaces the contents and rejects a duplicate.
    pub fn set<T: Ord + Clone + Default>(
        &mut self,
        key: &str,
        set: &mut BTreeSet<T>,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let n = self.len(key, set.len())?;
        if !self.is_load() {
            return set.iter().try_for_each(|x| item(self, &mut x.clone()));
        }
        set.clear();
        for _ in 0..n {
            let mut x = T::default();
            item(self, &mut x)?;
            if !set.insert(x) {
                return Err(self.error(format_args!("duplicate {key} entry")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_every_field_type() {
        let mut w = CkptWriter::new("test");
        w.u64("a", u64::MAX);
        w.bool("c", true);
        w.f64("d", -0.1);
        w.time("e", SimTime::from_secs(7));
        w.str("f", "hybrid/8");
        let text = w.finish();
        let mut r = CkptReader::new(&text, "test").unwrap();
        assert_eq!(r.u64("a").unwrap(), u64::MAX);
        assert!(r.bool("c").unwrap());
        assert_eq!(r.f64("d").unwrap(), -0.1);
        assert_eq!(r.time("e").unwrap(), SimTime::from_secs(7));
        assert_eq!(r.str("f").unwrap(), "hybrid/8");
        r.done().unwrap();
    }

    #[test]
    fn key_mismatch_is_an_error() {
        let mut w = CkptWriter::new("test");
        w.u64("expected", 1);
        let text = w.finish();
        let mut r = CkptReader::new(&text, "test").unwrap();
        let err = r.u64("other").unwrap_err();
        assert!(err.0.contains("expected"), "error names the wanted key: {err}");
    }

    #[test]
    fn wrong_kind_and_version_are_rejected() {
        let text = CkptWriter::new("alpha").finish();
        assert!(CkptReader::new(&text, "beta").is_err());
        let bad_version = text.replacen(&format!("={CKPT_VERSION}"), "=999", 1);
        assert!(CkptReader::new(&bad_version, "alpha").is_err());
    }

    #[test]
    fn truncation_and_trailing_state_are_errors() {
        let mut w = CkptWriter::new("test");
        w.u64("a", 1);
        w.u64("b", 2);
        let text = w.finish();
        let mut r = CkptReader::new(&text, "test").unwrap();
        r.u64("a").unwrap();
        assert!(r.done().is_err(), "unread field must be reported");
        let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        let mut r = CkptReader::new(&truncated, "test").unwrap();
        r.u64("a").unwrap();
        assert!(r.u64("b").is_err(), "missing field must be reported");
    }

    #[test]
    fn rng_snapshot_round_trip_resumes_the_stream() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..23 {
            rng.uniform_f64();
        }
        rng.fork();
        let mut w = CkptWriter::new("test");
        w.rng("r", &rng);
        let text = w.finish();
        let mut r = CkptReader::new(&text, "test").unwrap();
        let mut restored = r.rng("r").unwrap();
        r.done().unwrap();
        for _ in 0..32 {
            assert_eq!(rng.uniform_f64().to_bits(), restored.uniform_f64().to_bits());
        }
        assert_eq!(rng.fork().uniform_f64().to_bits(), restored.fork().uniform_f64().to_bits());
    }

    /// A codec over one of everything the field methods cover.
    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        count: u64,
        id: u32,
        parent: Option<u32>,
        flag: bool,
        label: String,
        kids: Vec<u32>,
        queue: VecDeque<(u32, SimTime)>,
        table: BTreeMap<u32, u64>,
        seen: BTreeSet<u64>,
    }

    impl Sample {
        fn ckpt(&mut self, c: &mut Ckpt<'_>, nodes: usize) -> Result<(), CkptError> {
            c.fixed_len("nodes", nodes)?;
            c.u64("count", &mut self.count)?;
            c.u32("id", &mut self.id)?;
            c.opt_index("parent", &mut self.parent, nodes)?;
            c.bool("flag", &mut self.flag)?;
            c.string("label", &mut self.label)?;
            c.list("kids", &mut self.kids, |c, k| c.index("kid", k, nodes))?;
            c.deque("queue", &mut self.queue, |c, (n, t)| {
                c.index("q_node", n, nodes)?;
                c.time("q_t", t)
            })?;
            c.map("table", &mut self.table, |c, k, v| {
                c.index("t_key", k, nodes)?;
                c.u64("t_val", v)
            })?;
            c.set("seen", &mut self.seen, |c, x| c.u64("s", x))
        }
    }

    fn sample_artifact() -> (Sample, String) {
        let mut s = Sample {
            count: 7,
            id: u32::MAX,
            parent: Some(2),
            flag: true,
            label: "hat/4".to_owned(),
            kids: vec![0, 3],
            queue: [(1, SimTime::from_secs(2))].into(),
            table: [(3, 9), (1, 4)].into(),
            seen: [5, 8].into(),
        };
        let mut c = Ckpt::save("test");
        s.ckpt(&mut c, 4).unwrap();
        (s, c.finish())
    }

    #[test]
    fn codec_round_trips_every_field_kind() {
        let (saved, text) = sample_artifact();
        let mut loaded = Sample::default();
        let mut c = Ckpt::load(&text, "test").unwrap();
        loaded.ckpt(&mut c, 4).unwrap();
        c.done().unwrap();
        assert_eq!(loaded, saved);
        assert!(text.contains("\nparent=3\nflag=1\nlabel=hat/4\nkids=2\nkid=0\nkid=3\n"));
    }

    #[test]
    fn codec_rejects_out_of_range_and_oversized_input() {
        let (_, text) = sample_artifact();
        let load = |text: &str, nodes| {
            let mut c = Ckpt::load(text, "test").unwrap();
            Sample::default().ckpt(&mut c, nodes).map(|_| ())
        };
        let tamper = |from: &str, to: &str| text.replacen(from, to, 1);
        assert!(load(&text, 5).unwrap_err().0.contains("nodes: this run has 5"));
        let wide = tamper("\nid=4294967295\n", "\nid=4294967296\n");
        assert!(load(&wide, 4).unwrap_err().0.contains("out of range"), "no silent truncation");
        assert!(load(&tamper("\nkid=3\n", "\nkid=4\n"), 4).is_err(), "id past the node count");
        assert!(load(&tamper("\nparent=3\n", "\nparent=5\n"), 4).is_err());
        assert!(load(&tamper("\nflag=1\n", "\nflag=2\n"), 4).is_err());
        let huge = tamper("\nkids=2\n", "\nkids=100000000000000\n");
        assert!(load(&huge, 4).unwrap_err().0.contains("lines left"), "no allocation from it");
        assert!(load(&tamper("\nt_key=3\n", "\nt_key=1\n"), 4)
            .unwrap_err()
            .0
            .contains("duplicate"));
        let mut c = Ckpt::save("test");
        c.present("tree", true).unwrap();
        let text = c.finish();
        let err = Ckpt::load(&text, "test").unwrap().present("tree", false).unwrap_err();
        assert!(err.0.contains("absent here but present"), "{err}");
    }

    proptest! {
        /// Floats survive the bit-pattern encoding exactly, including
        /// negative zero and subnormals.
        #[test]
        fn prop_f64_bits_round_trip(bits in 0u64..=u64::MAX) {
            let value = f64::from_bits(bits);
            let mut w = CkptWriter::new("test");
            w.f64("x", value);
            let text = w.finish();
            let mut r = CkptReader::new(&text, "test").unwrap();
            prop_assert_eq!(r.f64("x").unwrap().to_bits(), bits);
        }
    }
}
