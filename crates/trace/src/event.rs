//! The typed event vocabulary and its JSONL wire form.
//!
//! Every observable state change in a Flint run — engine task lifecycle,
//! cache churn, checkpoint decisions, market price action, cluster
//! repair — is one [`Event`]: a [`SimTime`] timestamp plus an
//! [`EventKind`] payload. The JSON encoding is deliberately flat (one
//! object per line, scalar fields only) so traces can be diffed,
//! grepped, and parsed with no serialization library; both directions
//! of the codec here are hand-rolled and byte-deterministic.

use flint_simtime::SimTime;

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual instant at which the event was committed to the stream.
    pub t: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Appends the event to `out` as a single flat JSON object (no
    /// trailing newline). The field order is fixed per variant, so equal
    /// events encode to identical bytes. `floats` is the encoder's ring
    /// of recent float tokens; it changes no byte written. Nothing is
    /// allocated beyond `out`'s own growth.
    pub(crate) fn write_json(&self, out: &mut impl JsonOut, floats: &mut FloatTokens) {
        out.push_ascii(b"{\"t\":");
        push_u64(out, self.t.as_millis());
        out.push_ascii(b",\"ev\":\"");
        out.push_str(self.kind.name());
        out.push_ascii(b"\"");
        self.kind.write_fields(out, floats);
        out.push_ascii(b"}");
    }

    /// `Event::write_json` into a fresh `String`, checked as UTF-8 once.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(64);
        self.write_json(&mut out, &mut FloatTokens::default());
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Parses one JSONL line produced by [`Event::to_json`].
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fields = parse_flat_object(line)?;
        let t = fields.u64("t")?;
        let name = fields.str("ev")?;
        let kind = EventKind::from_fields(name, &fields)?;
        Ok(Event {
            t: SimTime::from_millis(t),
            kind,
        })
    }
}

macro_rules! event_kinds {
    ($( $(#[$meta:meta])* $name:ident { $( $(#[$fmeta:meta])* $field:ident : $ty:tt ),* $(,)? } ),* $(,)?) => {
        /// The closed vocabulary of things a trace can record.
        ///
        /// Field types are deliberately primitive (`u64`, `f64`,
        /// `String`) rather than engine/market types: `flint-trace`
        /// sits below every other crate in the dependency graph, so
        /// emitters translate their ids at the call site.
        #[derive(Debug, Clone, PartialEq)]
        // Variant *fields* are primitive and self-describing; the
        // variant docs above each carry the semantics.
        #[allow(missing_docs)]
        pub enum EventKind {
            $( $(#[$meta])* $name { $( $(#[$fmeta])* $field: $ty, )* } ,)*
        }

        impl EventKind {
            /// Stable wire name of the variant (the `"ev"` field).
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$name { .. } => stringify!($name), )*
                }
            }

            /// Every wire name, in declaration order. Used by
            /// `trace validate` to report the known vocabulary.
            pub const NAMES: &'static [&'static str] = &[
                $( stringify!($name), )*
            ];

            fn write_fields(&self, out: &mut impl JsonOut, floats: &mut FloatTokens) {
                match self {
                    $( EventKind::$name { $( $field, )* } => {
                        $( field_codec!(@encode $ty, out, floats, $field); )*
                    } )*
                }
            }

            /// Visits every field as `(key, value)` in wire order, so the
            /// tests can run a transcribed reference encoder.
            #[cfg(test)]
            fn for_each_field(&self, mut f: impl FnMut(&'static str, tests::Field<'_>)) {
                match self {
                    $( EventKind::$name { $( $field, )* } => {
                        $( f(stringify!($field), field_codec!(@field $ty, $field)); )*
                    } )*
                }
            }

            /// An event of variant `name` with every field drawn from `g`.
            #[cfg(test)]
            fn draw(name: &str, g: &mut impl tests::FieldGen) -> EventKind {
                match name {
                    $( stringify!($name) => EventKind::$name {
                        $( $field: field_codec!(@draw $ty, g), )*
                    }, )*
                    other => panic!("unknown variant {other}"),
                }
            }

            fn from_fields(name: &str, fields: &Fields) -> Result<EventKind, ParseError> {
                match name {
                    $( stringify!($name) => Ok(EventKind::$name {
                        $( $field: field_codec!(@decode $ty, fields, stringify!($field)), )*
                    }), )*
                    other => Err(ParseError::UnknownEvent(other.to_string())),
                }
            }
        }
    };
}

macro_rules! field_codec {
    (@encode u64, $out:expr, $floats:expr, $field:ident) => {{
        $out.push_ascii(concat!(",\"", stringify!($field), "\":").as_bytes());
        push_u64($out, *$field);
    }};
    (@encode f64, $out:expr, $floats:expr, $field:ident) => {{
        $out.push_ascii(concat!(",\"", stringify!($field), "\":").as_bytes());
        $floats.push_f64($out, *$field);
    }};
    (@encode String, $out:expr, $floats:expr, $field:ident) => {{
        $out.push_ascii(concat!(",\"", stringify!($field), "\":").as_bytes());
        push_json_str($out, $field);
    }};
    (@field u64, $val:expr) => {
        tests::Field::U64(*$val)
    };
    (@field f64, $val:expr) => {
        tests::Field::F64(*$val)
    };
    (@field String, $val:expr) => {
        tests::Field::Str($val)
    };
    (@draw u64, $g:expr) => {
        $g.u64()
    };
    (@draw f64, $g:expr) => {
        $g.f64()
    };
    (@draw String, $g:expr) => {
        $g.string()
    };
    (@decode u64, $fields:expr, $key:expr) => {
        $fields.u64($key)?
    };
    (@decode f64, $fields:expr, $key:expr) => {
        $fields.f64($key)?
    };
    (@decode String, $fields:expr, $key:expr) => {
        $fields.str($key)?.to_string()
    };
}

event_kinds! {
    // ── engine: action / wave / task lifecycle ─────────────────────
    /// An action (job) entered the driver.
    ActionStarted { name: String },
    /// An action completed; `millis` is its virtual latency.
    ActionFinished { name: String, millis: u64 },
    /// A wave of ready tasks was dispatched to the parallel executor.
    WaveStarted { tasks: u64 },
    /// One task committed. `kind` is `"shuffle"`, `"output"`, or
    /// `"ckpt"`; `id`/`part` identify the stage partition; `worker`
    /// is the external (cloud) id of the host it ran on.
    TaskFinished { kind: String, id: u64, part: u64, worker: u64, millis: u64 },

    // ── engine: block-manager cache ────────────────────────────────
    /// A block entered a worker's memory store.
    CacheInsert { worker: u64, block: String, vbytes: u64 },
    /// A cached block was demoted from memory to local disk by LRU
    /// pressure.
    CacheSpill { worker: u64, block: String, vbytes: u64 },
    /// A cached block was dropped entirely (disk full or unspillable).
    CacheEvict { worker: u64, block: String, vbytes: u64 },

    // ── engine + policy: checkpointing ─────────────────────────────
    /// A checkpoint policy directed the driver to persist an RDD;
    /// `delta_ms` is the lineage recomputation debt (δ) the directive
    /// retires.
    CheckpointScheduled { rdd: u64, parts: u64, delta_ms: u64 },
    /// One partition checkpoint landed in durable storage, with both
    /// the modelled (`vbytes`) and byte-exact serialized
    /// (`wire_bytes`) sizes.
    CheckpointWritten { block: String, vbytes: u64, wire_bytes: u64, millis: u64 },
    /// Superseded checkpoint blocks were garbage-collected after `rdd`
    /// became fully checkpointed and terminated its lineage.
    CheckpointGc { rdd: u64, blocks: u64 },
    /// A partition was restored from a checkpoint instead of
    /// recomputed.
    Restored { block: String, millis: u64 },
    /// A previously-materialized partition had to be recomputed after
    /// a loss; `depth` is its distance from the deepest available
    /// ancestor in the lineage walk.
    Recomputed { block: String, depth: u64, millis: u64 },
    /// The adaptive policy re-estimated τ = √(2·δ·MTTF).
    TauAdapted { delta_ms: u64, tau_ms: u64, mttf_ms: u64 },

    // ── engine: cluster membership ─────────────────────────────────
    /// A worker joined the engine cluster.
    WorkerAdded { ext: u64 },
    /// A revocation warning reached the driver.
    RevocationWarning { ext: u64 },
    /// A worker was revoked and its volatile state dropped.
    WorkerRevoked { ext: u64 },
    /// The driver sat with zero usable workers for `millis`.
    Stalled { millis: u64 },

    // ── market: bidding, prices, instances ─────────────────────────
    /// A bid was placed on a spot market.
    BidPlaced { market: u64, bid: f64 },
    /// Spot price observed at request time.
    PriceTick { market: u64, price: f64 },
    /// The spot price crossed above an instance's bid.
    PriceSpike { market: u64, price: f64, bid: f64 },
    /// An instance was requested from the cloud.
    InstanceRequested { instance: u64, market: u64 },
    /// A requested instance became ready.
    InstanceReady { instance: u64 },
    /// The provider issued a revocation warning for an instance.
    InstanceWarned { instance: u64 },
    /// The provider revoked an instance.
    InstanceRevoked { instance: u64 },
    /// The tenant terminated an instance.
    InstanceTerminated { instance: u64 },
    /// Final compute bill for one instance lifetime (§5.5 hourly
    /// rounding; the partial final hour is free iff provider-revoked).
    InstanceBilled { instance: u64, cost: f64 },

    // ── core: node manager / selection ─────────────────────────────
    /// One round of replacing revoked servers.
    ReplacementRound { round: u64, lost: u64, requested: u64 },
    /// Cluster-wide MTTF re-estimate after membership change.
    MttfUpdated { mttf_ms: u64 },
    /// The selection policy allocated workers to a market.
    MarketSelected { market: u64, workers: u64 },

    // ── chaos: injected faults and recovery decisions ──────────────
    /// The chaos subsystem injected one fault. `kind` names the fault
    /// domain (`"revoke_unwarned"`, `"mass_revoke"`, `"flap"`,
    /// `"delayed_add"`, `"ckpt_torn"`, `"ckpt_write_fail"`,
    /// `"store_outage"`); `target` is the ext worker id, block key, or
    /// market it hit.
    FaultInjected { kind: String, target: String },
    /// A checkpoint read failed its integrity check (torn write): the
    /// stored bytes can not be trusted and the restore is abandoned.
    CheckpointCorruptDetected { block: String },
    /// A restore was abandoned and the partition fell back to lineage
    /// recomputation. `reason` is `"corrupt"` or `"outage"`.
    RestoreFallback { block: String, reason: String },
    /// The driver backed off before retrying a transiently-unavailable
    /// checkpoint store; `attempt` counts retries so far and `millis`
    /// is the capped exponential wait.
    BackoffScheduled { attempt: u64, millis: u64 },
    /// A flapping worker exceeded the remove-rate threshold and was
    /// quarantined: future Adds for this ext id are ignored.
    WorkerQuarantined { ext: u64, removes: u64 },

    // ── backend lifecycle and per-invocation billing ───────────────
    /// The run selected an execution backend at launch. `backend` is
    /// the backend kind (`"vm"`, `"serverless"`); `workers` is the
    /// provisioned worker / function-slot count.
    BackendSelected { backend: String, workers: u64 },
    /// A serverless invocation was admitted onto a function slot.
    /// `cold_ms` is the seeded cold-start latency charged to the task
    /// (0 when the container was still warm).
    InvocationStarted { invocation: u64, worker: u64, cold_ms: u64 },
    /// Final bill for one serverless invocation: GB-seconds consumed
    /// (duration × function memory) and dollars charged (GB-seconds ×
    /// rate + per-request fee). Σ over a run equals the serverless
    /// `CostReport.compute_cost` exactly.
    InvocationBilled { invocation: u64, gb_seconds: f64, cost: f64 },
    /// A shuffle map output was materialized through the external
    /// durable store instead of worker memory (the serverless shuffle
    /// transport).
    ShuffleExternalized { shuffle: u64, map_part: u64, vbytes: u64 },

    // ── portfolio selection and hazard re-estimation ───────────────
    /// One market's share of a mean-variance portfolio allocation:
    /// `count` of the cluster's servers go to `market`, `weight` is
    /// `count / n`, and `risk` is the risk-aversion λ the optimizer
    /// used for this decision.
    PortfolioWeight { market: u64, weight: f64, count: u64, risk: f64 },
    /// The node manager re-fitted the cluster MTTF under an
    /// age-dependent hazard model. `model` names the hazard,
    /// `mttf_ms` is the age-adjusted aggregate estimate, and
    /// `instances` counts the active instances it was fitted over.
    HazardRefit { model: String, mttf_ms: u64, instances: u64 },

    // ── degradation: circuit breakers, backstop, resumable runs ────
    /// A market's circuit breaker tripped open and the market left the
    /// candidate set. `reason` is `"revocation_rate"` or
    /// `"price_sustained"`; the breaker stays open until `until_ms`.
    BreakerOpened { market: u64, reason: String, until_ms: u64 },
    /// An open breaker finished its cooldown and entered half-open:
    /// the market may receive a single probe allocation.
    BreakerHalfOpen { market: u64 },
    /// A half-open probe survived (or the breaker was reset) and the
    /// market rejoined the candidate set.
    BreakerClosed { market: u64 },
    /// The on-demand backstop provisioned fixed-price workers because
    /// every transient market was open or capacity fell below the
    /// floor. `price` is the catalog on-demand rate paid per worker.
    BackstopProvisioned { market: u64, workers: u64, price: f64 },
    /// The driver persisted a run manifest and suspended at a
    /// wave-commit boundary; `frontier` counts committed waves.
    RunSuspended { manifest: String, frontier: u64 },
    /// A driver resumed from a persisted manifest at wave `frontier`.
    RunResumed { manifest: String, frontier: u64 },
}

/// The buffer an encoder appends to. Everything the encoder writes is
/// ASCII except a string field's own text, which arrives as `&str`, so
/// appending needs no UTF-8 check: the encoder writes bytes, and only
/// [`Event::to_json`] and [`crate::MemoryReader::to_jsonl`] check their
/// finished buffer once. The tests also append to a `String`.
pub(crate) trait JsonOut {
    /// Appends bytes that are all ASCII.
    fn push_ascii(&mut self, ascii: &[u8]);
    /// Appends UTF-8 text.
    fn push_str(&mut self, s: &str);
    /// Appends `v` as its `Display` writes it.
    fn push_display(&mut self, v: f64);
    /// Everything appended so far, the bytes held before included.
    fn bytes(&self) -> &[u8];
}

// `JsonlSink<W>` instantiates the encoder in its user's crate; the
// `#[inline]`s let these one-line appends inline there.
impl JsonOut for Vec<u8> {
    #[inline]
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }

    #[inline]
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    fn push_display(&mut self, v: f64) {
        // Writing into a `Vec` cannot fail.
        let _ = std::io::Write::write_fmt(self, format_args!("{v}"));
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        self
    }
}

#[cfg(test)]
impl JsonOut for String {
    fn push_ascii(&mut self, ascii: &[u8]) {
        debug_assert!(ascii.is_ascii());
        self.extend(ascii.iter().map(|&b| char::from(b)));
    }

    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }

    fn push_display(&mut self, v: f64) {
        let _ = std::fmt::Write::write_fmt(self, format_args!("{v}"));
    }

    fn bytes(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Two ASCII digits for each of `0..100`, for [`push_u64`].
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal, the bytes `Display` writes, two digits per
/// division from the right into a stack buffer (`u64::MAX` has 20).
fn push_u64(out: &mut impl JsonOut, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.push_ascii(&buf[at..]);
}

/// The last few float tokens an encoder wrote, keyed by bit pattern, so
/// a value that repeats across events (one replacement batch's price,
/// bid and bill) is formatted once. The bits decide the token, so a hit
/// appends exactly what formatting afresh would. Each encoder owns one;
/// it lives inline, so a fresh ring allocates nothing.
#[derive(Default)]
pub(crate) struct FloatTokens {
    /// `(f64::to_bits, token length, token bytes)`; length 0 marks an
    /// unused slot.
    slots: [(u64, u8, [u8; FloatTokens::TOKEN_BYTES]); 4],
    /// The slot the next stored token overwrites.
    next: usize,
}

impl FloatTokens {
    /// The longest token a slot keeps. Everyday values fit; a longer
    /// token (a huge or subnormal magnitude written out in full) is
    /// formatted every time.
    const TOKEN_BYTES: usize = 32;

    /// Appends an `f64` exactly as Rust's shortest-roundtrip `Display`,
    /// forcing a `.0` suffix on integral values so the token is
    /// unambiguously a float on the wire. `Display` writes digits, `-`,
    /// `.`, `inf` or `NaN` (never an exponent), so a `.`, `e`, `i` or
    /// `N` in the appended text marks it as already unambiguous.
    fn push_f64(&mut self, out: &mut impl JsonOut, v: f64) {
        let bits = v.to_bits();
        if let Some((_, len, token)) = self
            .slots
            .iter()
            .find(|(key, len, _)| *key == bits && *len > 0)
        {
            out.push_ascii(&token[..usize::from(*len)]);
            return;
        }
        let start = out.bytes().len();
        out.push_display(v);
        if !out.bytes()[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'i' | b'N'))
        {
            out.push_ascii(b".0");
        }
        let written = &out.bytes()[start..];
        if written.len() <= Self::TOKEN_BYTES {
            let (key, len, token) = &mut self.slots[self.next];
            *key = bits;
            *len = written.len() as u8;
            token[..written.len()].copy_from_slice(written);
            self.next = (self.next + 1) % self.slots.len();
        }
    }
}

/// Appends `s` as a JSON string. Runs of bytes that need no escape are
/// appended whole; the escaped bytes are all ASCII, so no cut splits a
/// multi-byte character.
fn push_json_str(out: &mut impl JsonOut, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push_ascii(b"\"");
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let control;
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                &control
            }
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_ascii(escaped);
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push_ascii(b"\"");
}

/// Why a JSONL line failed to parse back into an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Structural JSON error (not a flat object of scalars).
    Malformed(String),
    /// The `"ev"` name is not in the [`EventKind`] vocabulary.
    UnknownEvent(String),
    /// A required field is absent.
    MissingField(&'static str, String),
    /// A field is present but has the wrong scalar type.
    BadField(String, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(m) => write!(f, "malformed JSON: {m}"),
            ParseError::UnknownEvent(e) => write!(f, "unknown event variant {e:?}"),
            ParseError::MissingField(k, ev) => write!(f, "missing field {k:?} in {ev}"),
            ParseError::BadField(k, why) => write!(f, "bad field {k:?}: {why}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    /// Numbers keep their raw text so `u64` round-trips without a
    /// detour through `f64`.
    Num(String),
}

/// A parsed flat JSON object: ordered `(key, scalar)` pairs.
#[derive(Debug, Default)]
struct Fields(Vec<(String, Scalar)>);

impl Fields {
    fn get(&self, key: &str) -> Option<&Scalar> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&self, key: &'static str) -> Result<u64, ParseError> {
        match self.get(key) {
            Some(Scalar::Num(raw)) => raw
                .parse::<u64>()
                .map_err(|_| ParseError::BadField(key.into(), format!("{raw:?} is not a u64"))),
            Some(Scalar::Str(_)) => Err(ParseError::BadField(
                key.into(),
                "expected number, got string".into(),
            )),
            None => Err(ParseError::MissingField(key, self.ev_name())),
        }
    }

    fn f64(&self, key: &'static str) -> Result<f64, ParseError> {
        match self.get(key) {
            Some(Scalar::Num(raw)) => raw
                .parse::<f64>()
                .map_err(|_| ParseError::BadField(key.into(), format!("{raw:?} is not an f64"))),
            Some(Scalar::Str(_)) => Err(ParseError::BadField(
                key.into(),
                "expected number, got string".into(),
            )),
            None => Err(ParseError::MissingField(key, self.ev_name())),
        }
    }

    fn str(&self, key: &'static str) -> Result<&str, ParseError> {
        match self.get(key) {
            Some(Scalar::Str(s)) => Ok(s),
            Some(Scalar::Num(_)) => Err(ParseError::BadField(
                key.into(),
                "expected string, got number".into(),
            )),
            None => Err(ParseError::MissingField(key, self.ev_name())),
        }
    }

    fn ev_name(&self) -> String {
        match self.get("ev") {
            Some(Scalar::Str(s)) => s.clone(),
            _ => "<unknown>".into(),
        }
    }
}

/// Parses exactly the subset of JSON the encoder emits: one flat
/// object whose values are strings or numbers.
fn parse_flat_object(line: &str) -> Result<Fields, ParseError> {
    let mut chars = line.trim().char_indices().peekable();
    let src = line.trim();
    let err = |m: &str| ParseError::Malformed(m.to_string());

    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(err("expected '{'")),
    }
    let mut fields = Fields::default();
    // Empty object.
    if let Some((_, '}')) = chars.peek().copied() {
        chars.next();
        return finishing(chars, fields);
    }
    loop {
        let key = parse_string(&mut chars, src)?;
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(err("expected ':' after key")),
        }
        let value = match chars.peek().copied() {
            Some((_, '"')) => Scalar::Str(parse_string(&mut chars, src)?),
            Some((start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                Scalar::Num(src[start..end].to_string())
            }
            _ => return Err(err("expected string or number value")),
        };
        fields.0.push((key, value));
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            _ => return Err(err("expected ',' or '}'")),
        }
    }
    finishing(chars, fields)
}

fn finishing(
    mut rest: std::iter::Peekable<std::str::CharIndices<'_>>,
    fields: Fields,
) -> Result<Fields, ParseError> {
    match rest.next() {
        None => Ok(fields),
        Some(_) => Err(ParseError::Malformed(
            "trailing characters after '}'".into(),
        )),
    }
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    _src: &str,
) -> Result<String, ParseError> {
    let err = |m: &str| ParseError::Malformed(m.to_string());
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err(err("expected '\"'")),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or_else(|| err("bad \\u escape"))?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?);
                }
                _ => return Err(err("bad escape")),
            },
            Some((_, c)) => out.push(c),
            None => return Err(err("unterminated string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// One field as [`EventKind::for_each_field`] hands it out.
    pub(super) enum Field<'a> {
        U64(u64),
        F64(f64),
        Str(&'a str),
    }

    /// Field values for [`EventKind::draw`].
    pub(super) trait FieldGen {
        fn u64(&mut self) -> u64;
        fn f64(&mut self) -> f64;
        fn string(&mut self) -> String;
    }

    /// Hands out drawn pools cyclically. The cursors carry over from one
    /// variant to the next, so each variant sees different combinations.
    struct Pools {
        u64s: Vec<u64>,
        f64s: Vec<f64>,
        strs: Vec<String>,
        at: (usize, usize, usize),
    }

    impl FieldGen for Pools {
        fn u64(&mut self) -> u64 {
            self.at.0 += 1;
            self.u64s[self.at.0 % self.u64s.len()]
        }
        fn f64(&mut self) -> f64 {
            self.at.1 += 1;
            self.f64s[self.at.1 % self.f64s.len()]
        }
        fn string(&mut self) -> String {
            self.at.2 += 1;
            self.strs[self.at.2 % self.strs.len()].clone()
        }
    }

    /// The encoder before `write_json`, transcribed: `write!` per field
    /// and two `String`s per float.
    fn reference_to_json(ev: &Event) -> String {
        fn fmt_f64(v: f64) -> String {
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        fn push_json_str(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut s = String::with_capacity(64);
        let _ = write!(
            s,
            "{{\"t\":{},\"ev\":\"{}\"",
            ev.t.as_millis(),
            ev.kind.name()
        );
        ev.kind.for_each_field(|key, val| match val {
            Field::U64(v) => {
                let _ = write!(s, ",\"{}\":{}", key, v);
            }
            Field::F64(v) => {
                let _ = write!(s, ",\"{}\":{}", key, fmt_f64(v));
            }
            Field::Str(v) => {
                let _ = write!(s, ",\"{}\":", key);
                push_json_str(&mut s, v);
            }
        });
        s.push('}');
        s
    }

    fn arb_u64() -> impl Strategy<Value = u64> {
        prop_oneof![any::<u64>(), 0u64..1_000, Just(0), Just(u64::MAX)]
    }

    fn arb_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            // Includes NaN, ±∞, ±0.0, MIN_POSITIVE, MAX and MIN.
            any::<f64>(),
            (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
            (1u64..1 << 52).prop_map(f64::from_bits),
            -1.0f64..1.0,
            prop_oneof![
                Just(1e21),
                Just(-1e21),
                Just(1e-7),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MAX),
                Just(f64::from_bits(1)),
                Just(0.1 + 0.2),
            ],
        ]
    }

    fn arb_string() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '€', '😀',
        ];
        vec(0..ALPHABET.len(), 0..12).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        /// `write_json` appends exactly the bytes the transcribed encoder
        /// produced, for every variant, leaves what the buffer held before
        /// intact, and (with finite floats) parses back to the same event.
        #[test]
        fn write_json_matches_transcribed_encoder(
            t in arb_u64(),
            u64s in vec(arb_u64(), 7..8),
            f64s in vec(arb_f64(), 7..8),
            strs in vec(arb_string(), 7..8),
            prefix in arb_string(),
        ) {
            let mut pools = Pools { u64s, f64s, strs, at: (0, 0, 0) };
            let mut out = prefix.clone();
            for name in EventKind::NAMES {
                let ev = Event {
                    t: SimTime::from_millis(t),
                    kind: EventKind::draw(name, &mut pools),
                };
                let want = reference_to_json(&ev);
                let before = out.len();
                ev.write_json(&mut out, &mut FloatTokens::default());
                prop_assert_eq!(&out[before..], want.as_str());
                prop_assert_eq!(ev.to_json(), out[before..]);
                let mut finite = true;
                ev.kind.for_each_field(|_, v| {
                    finite &= !matches!(v, Field::F64(x) if !x.is_finite());
                });
                if finite {
                    let back = Event::from_json(&want).unwrap_or_else(|e| panic!("{want}: {e}"));
                    prop_assert_eq!(back, ev);
                }
            }
            prop_assert!(out.starts_with(&prefix));
        }

        /// One `JsonlSink` (one float-token ring) streams exactly the
        /// transcribed encoder's lines. Floats mostly repeat from a
        /// 3-value pool, so the ring hits, and otherwise come fresh, so
        /// it misses and evicts; `±0.0` and NaNs with distinct payloads
        /// share a token or differ only in their bits.
        #[test]
        fn jsonl_sink_float_ring_matches_transcribed_encoder(
            names in vec(0..EventKind::NAMES.len(), 1..60),
            times in vec(arb_u64(), 1..8),
            pool in vec(arb_ring_f64(), 3..4),
            fresh in vec(arb_ring_f64(), 1..16),
            picks in vec(0usize..5, 1..64),
            u64s in vec(arb_u64(), 1..8),
            strs in vec(arb_string(), 1..4),
        ) {
            let f64s: Vec<f64> = picks
                .iter()
                .enumerate()
                .map(|(i, p)| if *p < 3 { pool[*p] } else { fresh[i % fresh.len()] })
                .collect();
            let mut pools = Pools { u64s, f64s, strs, at: (0, 0, 0) };
            let mut bytes = Vec::new();
            let mut want = String::new();
            {
                let mut sink = crate::JsonlSink::new(&mut bytes);
                for (i, name) in names.iter().enumerate() {
                    let ev = Event {
                        t: SimTime::from_millis(times[i % times.len()]),
                        kind: EventKind::draw(EventKind::NAMES[*name], &mut pools),
                    };
                    crate::EventSink::emit(&mut sink, &ev);
                    want.push_str(&reference_to_json(&ev));
                    want.push('\n');
                }
            }
            prop_assert_eq!(String::from_utf8(bytes).expect("JSONL is UTF-8"), want);
        }
    }

    /// `arb_f64` plus the values whose tokens a bit-keyed ring could
    /// confuse: both zeros and NaNs with different sign and payload.
    fn arb_ring_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            arb_f64(),
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::from_bits(0x7ff8_0000_0000_0001)),
            Just(f64::MIN_POSITIVE / 2.0),
        ]
    }

    fn sample_events() -> Vec<Event> {
        let t = SimTime::from_millis(1234);
        let kinds = vec![
            EventKind::ActionStarted {
                name: "collect(rdd-12)".into(),
            },
            EventKind::ActionFinished {
                name: "count".into(),
                millis: 777,
            },
            EventKind::WaveStarted { tasks: 9 },
            EventKind::TaskFinished {
                kind: "shuffle".into(),
                id: 2,
                part: 3,
                worker: 41,
                millis: 500,
            },
            EventKind::CacheInsert {
                worker: 1,
                block: "rdd(3:0)".into(),
                vbytes: 1024,
            },
            EventKind::CacheSpill {
                worker: 1,
                block: "rdd(2:0)".into(),
                vbytes: 99,
            },
            EventKind::CacheEvict {
                worker: 1,
                block: "rdd(1:0)".into(),
                vbytes: 7,
            },
            EventKind::CheckpointScheduled {
                rdd: 5,
                parts: 8,
                delta_ms: 60_000,
            },
            EventKind::CheckpointWritten {
                block: "rdd(5:1)".into(),
                vbytes: 4096,
                wire_bytes: 4111,
                millis: 12,
            },
            EventKind::CheckpointGc { rdd: 2, blocks: 8 },
            EventKind::Restored {
                block: "rdd(5:1)".into(),
                millis: 3,
            },
            EventKind::Recomputed {
                block: "rdd(4:2)".into(),
                depth: 3,
                millis: 45,
            },
            EventKind::TauAdapted {
                delta_ms: 30_000,
                tau_ms: 900_000,
                mttf_ms: 3_600_000,
            },
            EventKind::WorkerAdded { ext: 17 },
            EventKind::RevocationWarning { ext: 17 },
            EventKind::WorkerRevoked { ext: 17 },
            EventKind::Stalled { millis: 120_000 },
            EventKind::BidPlaced {
                market: 3,
                bid: 0.35,
            },
            EventKind::PriceTick {
                market: 3,
                price: 0.0721,
            },
            EventKind::PriceSpike {
                market: 3,
                price: 1.5,
                bid: 0.35,
            },
            EventKind::InstanceRequested {
                instance: 9,
                market: 3,
            },
            EventKind::InstanceReady { instance: 9 },
            EventKind::InstanceWarned { instance: 9 },
            EventKind::InstanceRevoked { instance: 9 },
            EventKind::InstanceTerminated { instance: 9 },
            EventKind::InstanceBilled {
                instance: 9,
                cost: 1.0,
            },
            EventKind::ReplacementRound {
                round: 2,
                lost: 3,
                requested: 3,
            },
            EventKind::MttfUpdated { mttf_ms: 9_000_000 },
            EventKind::MarketSelected {
                market: 1,
                workers: 10,
            },
            EventKind::FaultInjected {
                kind: "revoke_unwarned".into(),
                target: "ext-17".into(),
            },
            EventKind::CheckpointCorruptDetected {
                block: "rdd-000005/part-00001".into(),
            },
            EventKind::RestoreFallback {
                block: "rdd-000005/part-00001".into(),
                reason: "corrupt".into(),
            },
            EventKind::BackoffScheduled {
                attempt: 2,
                millis: 4_000,
            },
            EventKind::WorkerQuarantined {
                ext: 17,
                removes: 3,
            },
            EventKind::BackendSelected {
                backend: "serverless".into(),
                workers: 8,
            },
            EventKind::InvocationStarted {
                invocation: 4,
                worker: 2,
                cold_ms: 412,
            },
            EventKind::InvocationBilled {
                invocation: 4,
                gb_seconds: 7.25,
                cost: 0.000121,
            },
            EventKind::ShuffleExternalized {
                shuffle: 3,
                map_part: 1,
                vbytes: 65_536,
            },
            EventKind::PortfolioWeight {
                market: 2,
                weight: 0.4,
                count: 4,
                risk: 1.5,
            },
            EventKind::HazardRefit {
                model: "capped-lifetime".into(),
                mttf_ms: 43_200_000,
                instances: 10,
            },
            EventKind::BreakerOpened {
                market: 4,
                reason: "revocation_rate".into(),
                until_ms: 7_500_000,
            },
            EventKind::BreakerHalfOpen { market: 4 },
            EventKind::BreakerClosed { market: 4 },
            EventKind::BackstopProvisioned {
                market: 0,
                workers: 3,
                price: 0.532,
            },
            EventKind::RunSuspended {
                manifest: "manifest-w12".into(),
                frontier: 12,
            },
            EventKind::RunResumed {
                manifest: "manifest-w12".into(),
                frontier: 12,
            },
        ];
        kinds.into_iter().map(|kind| Event { t, kind }).collect()
    }

    #[test]
    fn every_variant_roundtrips_through_json() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(ev, back, "roundtrip mismatch for {line}");
            // Re-encoding the parsed event is byte-identical.
            assert_eq!(line, back.to_json());
        }
        // The sample set covers the whole vocabulary.
        let mut seen: Vec<&str> = sample_events().iter().map(|e| e.kind.name()).collect();
        seen.dedup();
        assert_eq!(seen.len(), EventKind::NAMES.len());
    }

    #[test]
    fn floats_encode_unambiguously() {
        let ev = Event {
            t: SimTime::from_millis(0),
            kind: EventKind::InstanceBilled {
                instance: 1,
                cost: 2.0,
            },
        };
        assert!(ev.to_json().contains("\"cost\":2.0"));
        let back = Event::from_json(&ev.to_json()).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn strings_with_specials_roundtrip() {
        let ev = Event {
            t: SimTime::from_millis(5),
            kind: EventKind::ActionStarted {
                name: "weird \"name\"\n\\tab\t".into(),
            },
        };
        let back = Event::from_json(&ev.to_json()).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_json("").is_err());
        assert!(Event::from_json("{\"t\":1}").is_err());
        assert!(Event::from_json("{\"t\":1,\"ev\":\"NoSuchEvent\"}").is_err());
        assert!(Event::from_json("{\"t\":1,\"ev\":\"WaveStarted\"}").is_err());
        assert!(Event::from_json("{\"t\":1,\"ev\":\"WaveStarted\",\"tasks\":2}x").is_err());
        assert!(Event::from_json("{\"t\":\"one\",\"ev\":\"WaveStarted\",\"tasks\":2}").is_err());
        // Nested structures are outside the flat-scalar subset.
        assert!(Event::from_json("{\"t\":1,\"ev\":\"WaveStarted\",\"tasks\":[2]}").is_err());
    }

    /// `ev`'s encoding as its `"key":value` pairs, in wire order.
    fn json_pairs(ev: &Event) -> Vec<String> {
        let mut pairs = vec![
            format!("\"t\":{}", ev.t.as_millis()),
            format!("\"ev\":\"{}\"", ev.kind.name()),
        ];
        ev.kind.for_each_field(|key, val| {
            let mut v = String::new();
            match val {
                Field::U64(x) => push_u64(&mut v, x),
                Field::F64(x) => FloatTokens::default().push_f64(&mut v, x),
                Field::Str(x) => push_json_str(&mut v, x),
            }
            pairs.push(format!("\"{key}\":{v}"));
        });
        pairs
    }

    proptest! {
        /// `from_json` is total on hostile input: every prefix of a valid
        /// line, its keys in any order, a key given twice, a value of the
        /// wrong type, and arbitrary bytes each return `Ok` or a typed
        /// error. Reordered keys and a repeated identical key decode as
        /// the original line does; a wrong-typed value is an error.
        #[test]
        fn from_json_is_total_on_hostile_input(
            t in arb_u64(),
            u64s in vec(arb_u64(), 7..8),
            f64s in vec(arb_f64(), 7..8),
            strs in vec(arb_string(), 7..8),
            variant in 0..EventKind::NAMES.len(),
            order in vec(any::<u64>(), 32..33),
            pick in any::<usize>(),
            bytes in vec(any::<u8>(), 0..96),
        ) {
            let mut pools = Pools { u64s, f64s, strs, at: (0, 0, 0) };
            let ev = Event {
                t: SimTime::from_millis(t),
                kind: EventKind::draw(EventKind::NAMES[variant], &mut pools),
            };
            let line = ev.to_json();
            let pairs = json_pairs(&ev);
            prop_assert_eq!(format!("{{{}}}", pairs.join(",")), line);
            prop_assert!(pairs.len() <= order.len());
            let original = format!("{:?}", Event::from_json(&line));
            for (end, _) in line.char_indices() {
                let _ = Event::from_json(&line[..end]);
            }
            let object = |ps: &[&str]| format!("{{{}}}", ps.join(","));
            let mut shuffled: Vec<(u64, &str)> = order.iter().copied().zip(pairs.iter().map(String::as_str)).collect();
            shuffled.sort();
            let reordered: Vec<&str> = shuffled.iter().map(|(_, p)| *p).collect();
            prop_assert_eq!(format!("{:?}", Event::from_json(&object(&reordered))), original);
            let k = pick % pairs.len();
            let mut twice: Vec<&str> = pairs.iter().map(String::as_str).collect();
            twice.push(&pairs[k]);
            prop_assert_eq!(format!("{:?}", Event::from_json(&object(&twice))), original);
            let (key, value) = pairs[k].split_once(':').expect("a pair is key:value");
            let retyped = if value.starts_with('"') {
                format!("{key}:7")
            } else {
                format!("{key}:\"7\"")
            };
            twice[pairs.len()] = &retyped;
            let _ = Event::from_json(&object(&twice));
            let mut wrong: Vec<&str> = pairs.iter().map(String::as_str).collect();
            wrong[k] = &retyped;
            prop_assert!(Event::from_json(&object(&wrong)).is_err(), "{} decoded", object(&wrong));
            let _ = Event::from_json(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn unknown_event_error_names_the_variant() {
        let err = Event::from_json("{\"t\":1,\"ev\":\"Bogus\"}").unwrap_err();
        assert_eq!(err, ParseError::UnknownEvent("Bogus".into()));
        assert!(EventKind::NAMES.contains(&"TauAdapted"));
    }
}
