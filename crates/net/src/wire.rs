//! Binary payload codecs for the engine's structural types.
//!
//! A [`Writer`] appends big-endian primitives to a growable buffer; a
//! [`Reader`] is a checked cursor over a received payload. Reads are
//! *total*: every truncation, bad tag, or absurd length produces a
//! [`FrameError::Malformed`] — never a panic, and never an allocation
//! sized by an attacker-controlled length field (collections are grown
//! element by element, with each element read bounds-checked against the
//! remaining payload, so a claimed length of four billion fails on the
//! first missing byte instead of reserving memory up front).
//!
//! Row values are compact: an `Int` is a zigzag [varint](Writer::varint),
//! and a row's arity and every string's length are varints too, so a
//! small integer costs 1–2 bytes instead of 8 and a short string one
//! length byte instead of 4. Result bytes are what a drained query puts
//! on the wire in one burst, and on loopback a burst past one TCP segment
//! (≈ 64 KiB) changes which delayed-ACK waits the round trip pays (DESIGN.md,
//! "Value encoding"); the compact form keeps the same rows in about half
//! the bytes. Floats stay 8-byte bit patterns, so every value round-trips
//! bit for bit.
//!
//! Recursive structures ([`Expr`]) carry an explicit depth limit
//! ([`MAX_EXPR_DEPTH`]) on both encode and decode: a deeply nested
//! hostile payload errors out instead of overflowing the stack.

use crate::frame::FrameError;
use rqp_common::expr::{ArithOp, CmpOp};
use rqp_common::{Expr, Row, Value};
use rqp_exec::{AggFunc, AggSpec};
use rqp_opt::{JoinEdge, QuerySpec};
use rqp_server::{LiveQueryStats, QueryPhase};
use rqp_telemetry::{MetricValue, MetricsSnapshot, RecordedEvent};

/// Maximum [`Expr`] nesting accepted on the wire.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Maximum byte length of a single string on the wire (1 MiB).
pub const MAX_STR: u32 = 1024 * 1024;

type Result<T> = std::result::Result<T, FrameError>;

fn malformed(msg: impl Into<String>) -> FrameError {
    FrameError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Append-only payload builder (big-endian).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (big-endian).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u64` as an unsigned LEB128 varint: seven bits per byte,
    /// low groups first, the high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a varint-length-prefixed UTF-8 string. Mirrors
    /// [`Reader::str`]: strings over [`MAX_STR`] are rejected at encode
    /// time, so this side never emits a frame the peer is guaranteed to
    /// drop as malformed.
    pub fn str(&mut self, s: &str) -> Result<()> {
        if s.len() > MAX_STR as usize {
            return Err(malformed(format!("string of {} bytes exceeds {MAX_STR}", s.len())));
        }
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// Append an `Option<f64>` (presence byte + value).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
}

/// Checked cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole payload was consumed — trailing garbage in a
    /// fixed-layout message means the peer and we disagree on the layout.
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(malformed(format!("{} trailing bytes after message", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "need {n} bytes, {} remain in payload",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("bool byte {b}"))),
        }
    }

    /// Read an unsigned LEB128 varint ([`Writer::varint`]). At most ten
    /// bytes; a tenth byte carrying more than the 64th bit is malformed,
    /// never silently truncated.
    pub fn varint(&mut self) -> Result<u64> {
        let rest = &self.buf[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(10).enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if i == 9 && b > 1 {
                    return Err(malformed("varint overflows u64"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(malformed(if rest.len() < 10 {
            "varint runs past the end of the payload"
        } else {
            "varint longer than ten bytes"
        }))
    }

    /// Read a varint-length-prefixed UTF-8 string. The length is validated
    /// against both [`MAX_STR`] and the remaining payload before any
    /// allocation.
    pub fn str(&mut self) -> Result<String> {
        let len = self.varint()?;
        if len > u64::from(MAX_STR) {
            return Err(malformed(format!("string of {len} bytes exceeds {MAX_STR}")));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid UTF-8 in string"))
    }

    /// Read an `Option<f64>`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }
}

// ---------------------------------------------------------------------------
// Engine types
// ---------------------------------------------------------------------------

/// Encode a [`Value`]: a tag byte, then an `Int` as a zigzag varint
/// (`0, -1, 1, -2, …` ↦ `0, 1, 2, 3, …`), a `Float` as its 8-byte bit
/// pattern, a `Str` as a string. Fails on a string value the wire cannot
/// carry (over [`MAX_STR`]), mirroring the decode-side bound.
pub fn put_value(w: &mut Writer, v: &Value) -> Result<()> {
    match v {
        Value::Null => w.u8(0),
        Value::Int(i) => {
            w.u8(1);
            w.varint(((i << 1) ^ (i >> 63)) as u64);
        }
        Value::Float(f) => {
            w.u8(2);
            w.f64(*f);
        }
        Value::Str(s) => {
            w.u8(3);
            w.str(s)?;
        }
    }
    Ok(())
}

/// Decode a [`Value`].
pub fn get_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => {
            let z = r.varint()?;
            Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
        }
        2 => Value::Float(r.f64()?),
        3 => Value::Str(r.str()?),
        t => return Err(malformed(format!("value tag {t}"))),
    })
}

/// Encode a [`Row`]: its arity as a varint, then each value.
pub fn put_row(w: &mut Writer, row: &Row) -> Result<()> {
    w.varint(row.len() as u64);
    for v in row {
        put_value(w, v)?;
    }
    Ok(())
}

/// Decode a [`Row`].
pub fn get_row(r: &mut Reader) -> Result<Row> {
    let n = r.varint()?;
    let mut row = Vec::new();
    for _ in 0..n {
        row.push(get_value(r)?);
    }
    Ok(row)
}

/// Encode a batch of rows.
pub fn put_rows(w: &mut Writer, rows: &[Row]) -> Result<()> {
    w.u32(rows.len() as u32);
    for row in rows {
        put_row(w, row)?;
    }
    Ok(())
}

/// Decode a batch of rows.
pub fn get_rows(r: &mut Reader) -> Result<Vec<Row>> {
    let n = r.u32()?;
    let mut rows = Vec::new();
    for _ in 0..n {
        rows.push(get_row(r)?);
    }
    Ok(rows)
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_op_from(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(malformed(format!("comparison operator tag {t}"))),
    })
}

fn arith_op_tag(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
    }
}

fn arith_op_from(tag: u8) -> Result<ArithOp> {
    Ok(match tag {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        t => return Err(malformed(format!("arithmetic operator tag {t}"))),
    })
}

/// Encode an [`Expr`]. Fails (rather than recursing unboundedly) past
/// [`MAX_EXPR_DEPTH`].
pub fn put_expr(w: &mut Writer, e: &Expr) -> Result<()> {
    put_expr_depth(w, e, 0)
}

fn put_expr_depth(w: &mut Writer, e: &Expr, depth: usize) -> Result<()> {
    if depth > MAX_EXPR_DEPTH {
        return Err(malformed(format!("expression deeper than {MAX_EXPR_DEPTH}")));
    }
    match e {
        Expr::Col(c) => {
            w.u8(0);
            w.str(c)?;
        }
        Expr::Lit(v) => {
            w.u8(1);
            put_value(w, v)?;
        }
        Expr::Cmp { op, lhs, rhs } => {
            w.u8(2);
            w.u8(cmp_op_tag(*op));
            put_expr_depth(w, lhs, depth + 1)?;
            put_expr_depth(w, rhs, depth + 1)?;
        }
        Expr::Between { expr, lo, hi } => {
            w.u8(3);
            put_expr_depth(w, expr, depth + 1)?;
            put_value(w, lo)?;
            put_value(w, hi)?;
        }
        Expr::InList { expr, list } => {
            w.u8(4);
            put_expr_depth(w, expr, depth + 1)?;
            w.u32(list.len() as u32);
            for v in list {
                put_value(w, v)?;
            }
        }
        Expr::And(v) => {
            w.u8(5);
            w.u32(v.len() as u32);
            for x in v {
                put_expr_depth(w, x, depth + 1)?;
            }
        }
        Expr::Or(v) => {
            w.u8(6);
            w.u32(v.len() as u32);
            for x in v {
                put_expr_depth(w, x, depth + 1)?;
            }
        }
        Expr::Not(x) => {
            w.u8(7);
            put_expr_depth(w, x, depth + 1)?;
        }
        Expr::Arith { op, lhs, rhs } => {
            w.u8(8);
            w.u8(arith_op_tag(*op));
            put_expr_depth(w, lhs, depth + 1)?;
            put_expr_depth(w, rhs, depth + 1)?;
        }
    }
    Ok(())
}

/// Decode an [`Expr`], enforcing [`MAX_EXPR_DEPTH`].
pub fn get_expr(r: &mut Reader) -> Result<Expr> {
    get_expr_depth(r, 0)
}

fn get_expr_depth(r: &mut Reader, depth: usize) -> Result<Expr> {
    if depth > MAX_EXPR_DEPTH {
        return Err(malformed(format!("expression deeper than {MAX_EXPR_DEPTH}")));
    }
    Ok(match r.u8()? {
        0 => Expr::Col(r.str()?),
        1 => Expr::Lit(get_value(r)?),
        2 => {
            let op = cmp_op_from(r.u8()?)?;
            let lhs = Box::new(get_expr_depth(r, depth + 1)?);
            let rhs = Box::new(get_expr_depth(r, depth + 1)?);
            Expr::Cmp { op, lhs, rhs }
        }
        3 => {
            let expr = Box::new(get_expr_depth(r, depth + 1)?);
            let lo = get_value(r)?;
            let hi = get_value(r)?;
            Expr::Between { expr, lo, hi }
        }
        4 => {
            let expr = Box::new(get_expr_depth(r, depth + 1)?);
            let n = r.u32()?;
            let mut list = Vec::new();
            for _ in 0..n {
                list.push(get_value(r)?);
            }
            Expr::InList { expr, list }
        }
        5 => {
            let n = r.u32()?;
            let mut v = Vec::new();
            for _ in 0..n {
                v.push(get_expr_depth(r, depth + 1)?);
            }
            Expr::And(v)
        }
        6 => {
            let n = r.u32()?;
            let mut v = Vec::new();
            for _ in 0..n {
                v.push(get_expr_depth(r, depth + 1)?);
            }
            Expr::Or(v)
        }
        7 => Expr::Not(Box::new(get_expr_depth(r, depth + 1)?)),
        8 => {
            let op = arith_op_from(r.u8()?)?;
            let lhs = Box::new(get_expr_depth(r, depth + 1)?);
            let rhs = Box::new(get_expr_depth(r, depth + 1)?);
            Expr::Arith { op, lhs, rhs }
        }
        t => return Err(malformed(format!("expression tag {t}"))),
    })
}

fn agg_func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    }
}

fn agg_func_from(tag: u8) -> Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        t => return Err(malformed(format!("aggregate function tag {t}"))),
    })
}

/// Encode a [`QuerySpec`]. Local predicates are emitted in sorted table
/// order so the same spec always encodes to the same bytes, whatever the
/// `HashMap` iteration order.
pub fn put_query_spec(w: &mut Writer, spec: &QuerySpec) -> Result<()> {
    w.u32(spec.tables.len() as u32);
    for t in &spec.tables {
        w.str(t)?;
    }
    let mut preds: Vec<(&String, &Expr)> = spec.local_preds.iter().collect();
    preds.sort_by_key(|(t, _)| (*t).clone());
    w.u32(preds.len() as u32);
    for (t, p) in preds {
        w.str(t)?;
        put_expr(w, p)?;
    }
    w.u32(spec.joins.len() as u32);
    for j in &spec.joins {
        w.str(&j.left_table)?;
        w.str(&j.left_col)?;
        w.str(&j.right_table)?;
        w.str(&j.right_col)?;
    }
    match &spec.projections {
        Some(cols) => {
            w.u8(1);
            w.u32(cols.len() as u32);
            for c in cols {
                w.str(c)?;
            }
        }
        None => w.u8(0),
    }
    w.u32(spec.group_by.len() as u32);
    for c in &spec.group_by {
        w.str(c)?;
    }
    w.u32(spec.aggs.len() as u32);
    for a in &spec.aggs {
        w.u8(agg_func_tag(a.func));
        match &a.col {
            Some(c) => {
                w.u8(1);
                w.str(c)?;
            }
            None => w.u8(0),
        }
        w.str(&a.alias)?;
    }
    w.u32(spec.order_by.len() as u32);
    for c in &spec.order_by {
        w.str(c)?;
    }
    match spec.limit {
        Some(n) => {
            w.u8(1);
            w.u64(n as u64);
        }
        None => w.u8(0),
    }
    Ok(())
}

/// Decode a [`QuerySpec`].
pub fn get_query_spec(r: &mut Reader) -> Result<QuerySpec> {
    let mut spec = QuerySpec::new();
    let n = r.u32()?;
    for _ in 0..n {
        spec.tables.push(r.str()?);
    }
    let n = r.u32()?;
    for _ in 0..n {
        let t = r.str()?;
        let p = get_expr(r)?;
        spec.local_preds.insert(t, p);
    }
    let n = r.u32()?;
    for _ in 0..n {
        let left_table = r.str()?;
        let left_col = r.str()?;
        let right_table = r.str()?;
        let right_col = r.str()?;
        spec.joins.push(JoinEdge::new(left_table, left_col, right_table, right_col));
    }
    if r.bool()? {
        let n = r.u32()?;
        let mut cols = Vec::new();
        for _ in 0..n {
            cols.push(r.str()?);
        }
        spec.projections = Some(cols);
    }
    let n = r.u32()?;
    for _ in 0..n {
        spec.group_by.push(r.str()?);
    }
    let n = r.u32()?;
    for _ in 0..n {
        let func = agg_func_from(r.u8()?)?;
        let col = if r.bool()? { Some(r.str()?) } else { None };
        let alias = r.str()?;
        spec.aggs.push(AggSpec { func, col, alias });
    }
    let n = r.u32()?;
    for _ in 0..n {
        spec.order_by.push(r.str()?);
    }
    if r.bool()? {
        spec.limit = Some(r.u64()? as usize);
    }
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Introspection types (STATS / INSPECT / EVENTS payloads)
// ---------------------------------------------------------------------------

/// Encode a [`MetricValue`] (tag 0 = counter, 1 = gauge, 2 = histogram).
pub fn put_metric_value(w: &mut Writer, v: &MetricValue) -> Result<()> {
    match v {
        MetricValue::Counter(c) => {
            w.u8(0);
            w.u64(*c);
        }
        MetricValue::Gauge(g) => {
            w.u8(1);
            w.f64(*g);
        }
        MetricValue::Histogram { count, sum, max, buckets } => {
            w.u8(2);
            w.u64(*count);
            w.f64(*sum);
            w.f64(*max);
            w.u32(buckets.len() as u32);
            for (le, c) in buckets {
                w.f64(*le);
                w.u64(*c);
            }
        }
    }
    Ok(())
}

/// Decode a [`MetricValue`].
pub fn get_metric_value(r: &mut Reader) -> Result<MetricValue> {
    match r.u8()? {
        0 => Ok(MetricValue::Counter(r.u64()?)),
        1 => Ok(MetricValue::Gauge(r.f64()?)),
        2 => {
            let count = r.u64()?;
            let sum = r.f64()?;
            let max = r.f64()?;
            let n = r.u32()?;
            let mut buckets = Vec::new();
            for _ in 0..n {
                buckets.push((r.f64()?, r.u64()?));
            }
            Ok(MetricValue::Histogram { count, sum, max, buckets })
        }
        t => Err(malformed(format!("unknown metric value tag {t}"))),
    }
}

/// Encode a whole [`MetricsSnapshot`] (name + value pairs, in order).
pub fn put_metrics(w: &mut Writer, snap: &MetricsSnapshot) -> Result<()> {
    w.u32(snap.len() as u32);
    for (name, value) in snap {
        w.str(name)?;
        put_metric_value(w, value)?;
    }
    Ok(())
}

/// Decode a [`MetricsSnapshot`].
pub fn get_metrics(r: &mut Reader) -> Result<MetricsSnapshot> {
    let n = r.u32()?;
    let mut snap = Vec::new();
    for _ in 0..n {
        let name = r.str()?;
        let value = get_metric_value(r)?;
        snap.push((name, value));
    }
    Ok(snap)
}

/// Encode one in-flight query's live state.
pub fn put_live_query(w: &mut Writer, q: &LiveQueryStats) -> Result<()> {
    w.u64(q.query);
    w.u64(q.session);
    w.u8(q.priority);
    w.u8(q.phase.as_u8());
    w.f64(q.ticks);
    w.f64(q.granted);
    w.f64(q.share);
    w.opt_f64(q.deadline_remaining);
    Ok(())
}

/// Decode one in-flight query's live state.
pub fn get_live_query(r: &mut Reader) -> Result<LiveQueryStats> {
    Ok(LiveQueryStats {
        query: r.u64()?,
        session: r.u64()?,
        priority: r.u8()?,
        phase: QueryPhase::from_u8(r.u8()?),
        ticks: r.f64()?,
        granted: r.f64()?,
        share: r.f64()?,
        deadline_remaining: r.opt_f64()?,
    })
}

/// Encode a list of in-flight queries.
pub fn put_live_queries(w: &mut Writer, live: &[LiveQueryStats]) -> Result<()> {
    w.u32(live.len() as u32);
    for q in live {
        put_live_query(w, q)?;
    }
    Ok(())
}

/// Decode a list of in-flight queries.
pub fn get_live_queries(r: &mut Reader) -> Result<Vec<LiveQueryStats>> {
    let n = r.u32()?;
    let mut live = Vec::new();
    for _ in 0..n {
        live.push(get_live_query(r)?);
    }
    Ok(live)
}

/// Encode one flight-recorder event.
pub fn put_event(w: &mut Writer, e: &RecordedEvent) -> Result<()> {
    w.u64(e.seq);
    w.f64(e.at);
    w.u64(e.query);
    w.str(&e.kind)?;
    w.str(&e.detail)?;
    Ok(())
}

/// Decode one flight-recorder event.
pub fn get_event(r: &mut Reader) -> Result<RecordedEvent> {
    Ok(RecordedEvent {
        seq: r.u64()?,
        at: r.f64()?,
        query: r.u64()?,
        kind: r.str()?,
        detail: r.str()?,
    })
}

/// Encode a flight-recorder event batch.
pub fn put_events(w: &mut Writer, events: &[RecordedEvent]) -> Result<()> {
    w.u32(events.len() as u32);
    for e in events {
        put_event(w, e)?;
    }
    Ok(())
}

/// Decode a flight-recorder event batch.
pub fn get_events(r: &mut Reader) -> Result<Vec<RecordedEvent>> {
    let n = r.u32()?;
    let mut events = Vec::new();
    for _ in 0..n {
        events.push(get_event(r)?);
    }
    Ok(events)
}

/// Canonical FNV-1a checksum of a row batch over its wire encoding — the
/// result-identity currency of the wire experiments: a client-side checksum
/// equal to the server-side solo checksum proves bit-identical rows without
/// shipping the rows back again.
///
/// A batch that cannot legally encode (a string over [`MAX_STR`]) can never
/// cross the wire either, so no remote checksum can exist to compare it
/// against; the failure is folded into the hash deterministically instead
/// of making every comparison site fallible.
pub fn rows_checksum(rows: &[Row]) -> u64 {
    let mut w = Writer::new();
    let err = put_rows(&mut w, rows).err();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(&w.into_bytes());
    if let Some(e) = err {
        mix(e.to_string().as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};

    fn sample_spec() -> QuerySpec {
        QuerySpec::new()
            .table("lineitem")
            .join("lineitem", "orderkey", "orders", "orderkey")
            .filter(
                "lineitem",
                col("lineitem.shipdate")
                    .between(10i64, 400i64)
                    .and(col("lineitem.discount").lt(lit(0.05)))
                    .and(col("lineitem.flag").in_list(vec![
                        Value::Str("A".into()),
                        Value::Null,
                    ]))
                    .and(col("lineitem.qty").mul(lit(2i64)).gt(lit(7i64)).not()),
            )
            .filter("orders", col("orders.seg").eq(lit(1i64)))
            .project(&["lineitem.shipdate", "orders.seg"])
            .aggregate(
                &["orders.seg"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::on(AggFunc::Avg, "lineitem.discount", "avg_disc"),
                ],
            )
            .order(&["orders.seg"])
            .limit(10)
    }

    #[test]
    fn query_spec_round_trips_via_cache_key() {
        let spec = sample_spec();
        let mut w = Writer::new();
        put_query_spec(&mut w, &spec).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_query_spec(&mut r).unwrap();
        r.finish().unwrap();
        // cache_key covers tables, predicates, joins, projections, grouping,
        // aggregates, ordering and limit — equality of keys is structural
        // equality of everything the planner sees.
        assert_eq!(spec.cache_key(), back.cache_key());
    }

    #[test]
    fn values_and_rows_round_trip() {
        let row: Row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(-0.125),
            Value::Str("héllo".into()),
        ];
        let mut w = Writer::new();
        put_rows(&mut w, &[row.clone(), row.clone()]).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_rows(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, vec![row.clone(), row]);
    }

    #[test]
    fn compact_values_round_trip_bit_for_bit_at_the_extremes() {
        let ints = [0, 1, -1, 63, -64, 64, -65, 1 << 53, i64::MAX, i64::MIN, i64::MIN + 1];
        let floats = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -1.5e300];
        let row: Row = ints
            .iter()
            .map(|&i| Value::Int(i))
            .chain(floats.iter().map(|&f| Value::Float(f)))
            .chain([Value::Str(String::new()), Value::Str("x".repeat(200)), Value::Null])
            .collect();
        let mut w = Writer::new();
        put_row(&mut w, &row).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_row(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), row.len());
        for (a, b) in row.iter().zip(&back) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
        // Sizes: a tag, then 1 varint byte per 7 bits of the zigzag value.
        let size = |v: Value| {
            let mut w = Writer::new();
            put_value(&mut w, &v).unwrap();
            w.into_bytes().len()
        };
        for (i, n) in [(0, 2), (-1, 2), (-64, 2), (63, 2), (64, 3), (i64::MAX, 11), (i64::MIN, 11)] {
            assert_eq!(size(Value::Int(i)), n, "Int({i})");
        }
        assert_eq!(size(Value::Str("x".repeat(127))), 1 + 1 + 127);
        assert_eq!(size(Value::Str("x".repeat(128))), 1 + 2 + 128);
        // A `wide_fetch` customer row (custkey, nationkey, mktsegment,
        // acctbal): 17 bytes, 40 with fixed-width integers and arity.
        let mut w = Writer::new();
        let customer = vec![Value::Int(4_999), Value::Int(24), Value::Int(4), Value::Float(1_234.5)];
        put_row(&mut w, &customer).unwrap();
        assert_eq!(w.into_bytes().len(), 17);
    }

    #[test]
    fn varints_are_bounded_to_ten_bytes_and_sixty_four_bits() {
        let mut w = Writer::new();
        w.varint(u64::MAX);
        let max = w.into_bytes();
        assert_eq!(max.len(), 10);
        assert_eq!(Reader::new(&max).varint().unwrap(), u64::MAX);
        // A tenth byte carrying bits past the 64th overflows.
        let mut over = max.clone();
        over[9] = 0x02;
        assert!(Reader::new(&over).varint().is_err());
        // Eleven bytes never decode, and a dangling continuation bit is a
        // truncation.
        let long = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00];
        assert!(Reader::new(&long).varint().is_err());
        assert!(Reader::new(&[0x80u8]).varint().is_err());
        // Every truncation of an encoded row is a typed error.
        let mut w = Writer::new();
        put_row(&mut w, &vec![Value::Int(i64::MIN), Value::Str("héllo".into())]).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(get_row(&mut r).is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn introspection_payloads_round_trip_and_reject_truncation() {
        let metrics: MetricsSnapshot = vec![
            ("wire.connections".into(), MetricValue::Counter(3)),
            ("server.live.reserved".into(), MetricValue::Gauge(1234.5)),
            (
                "wire.page.rows".into(),
                MetricValue::Histogram {
                    count: 4,
                    sum: 700.0,
                    max: 256.0,
                    buckets: vec![(2.0, 1), (256.0, 3)],
                },
            ),
        ];
        let live = vec![
            LiveQueryStats {
                query: 7,
                session: 2,
                priority: 1,
                phase: QueryPhase::Running,
                ticks: 123.0,
                granted: 500.0,
                share: 2_500.0,
                deadline_remaining: Some(77.0),
            },
            LiveQueryStats {
                query: 9,
                session: 3,
                priority: 0,
                phase: QueryPhase::Paging,
                ticks: 0.0,
                granted: 0.0,
                share: 0.0,
                deadline_remaining: None,
            },
        ];
        let events = vec![
            RecordedEvent {
                seq: 41,
                at: 1.5,
                query: 7,
                kind: "admission.admit".into(),
                detail: "running 2 of mpl 4".into(),
            },
            RecordedEvent { seq: 42, at: 1.6, query: 0, kind: "pager.stall".into(), detail: String::new() },
        ];
        let mut w = Writer::new();
        put_metrics(&mut w, &metrics).unwrap();
        put_live_queries(&mut w, &live).unwrap();
        put_events(&mut w, &events).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_metrics(&mut r).unwrap(), metrics);
        assert_eq!(get_live_queries(&mut r).unwrap(), live);
        assert_eq!(get_events(&mut r).unwrap(), events);
        r.finish().unwrap();
        // Every truncation point fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = get_metrics(&mut r)
                .and_then(|_| get_live_queries(&mut r))
                .and_then(|_| get_events(&mut r))
                .and_then(|_| r.finish());
            assert!(res.is_err(), "truncation at {cut} must not decode");
        }
        // Unknown metric-value tags are malformed, not panics.
        let mut w = Writer::new();
        w.u8(9);
        let bytes = w.into_bytes();
        assert!(get_metric_value(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn truncated_payloads_are_typed_not_panics() {
        let mut w = Writer::new();
        put_query_spec(&mut w, &sample_spec()).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = get_query_spec(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn adversarial_lengths_do_not_overallocate() {
        // A rows batch claiming u32::MAX rows with a 5-byte body: the decoder
        // must fail on the first missing byte, not reserve gigabytes.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(0); // one Null value, then nothing
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(get_rows(&mut r).is_err());
        // A string claiming MAX_STR+1 bytes is rejected before allocation.
        let mut w = Writer::new();
        w.varint(u64::from(MAX_STR) + 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn oversized_strings_are_rejected_at_encode_time_too() {
        // Writer::str mirrors Reader::str: a string the peer would reject
        // as malformed never makes it into a payload in the first place.
        let big = "x".repeat(MAX_STR as usize + 1);
        let mut w = Writer::new();
        assert!(w.str(&big).is_err());
        let mut w = Writer::new();
        assert!(put_value(&mut w, &Value::Str(big.clone())).is_err());
        let mut w = Writer::new();
        assert!(put_rows(&mut w, &[vec![Value::Str(big.clone())]]).is_err());
        // And rows_checksum stays total: the unencodable batch still hashes
        // (to something different from a near-miss legal batch).
        let legal = vec![vec![Value::Str("x".repeat(MAX_STR as usize))]];
        assert_ne!(rows_checksum(&[vec![Value::Str(big)]]), rows_checksum(&legal));
        // Exactly MAX_STR is fine on both sides.
        let mut w = Writer::new();
        put_rows(&mut w, &legal).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_rows(&mut r).unwrap(), legal);
    }

    #[test]
    fn hostile_deep_expression_hits_the_depth_limit() {
        // Not(Not(Not(... Col))) deeper than the limit, hand-encoded so the
        // encoder's own limit can't refuse to produce it.
        let mut w = Writer::new();
        for _ in 0..(MAX_EXPR_DEPTH + 2) {
            w.u8(7); // Not
        }
        w.u8(0);
        w.str("c").unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = get_expr(&mut r).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err:?}");

        // And the encoder refuses the same shape.
        let mut e = col("c");
        for _ in 0..(MAX_EXPR_DEPTH + 2) {
            e = e.not();
        }
        let mut w = Writer::new();
        assert!(put_expr(&mut w, &e).is_err());
    }

    #[test]
    fn byte_soup_decodes_to_typed_errors() {
        let mut state = 0xdeadbeefdeadbeefu64;
        for trial in 0..256 {
            let mut bytes = Vec::new();
            for _ in 0..(trial % 40) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                bytes.push((state >> 56) as u8);
            }
            let mut r = Reader::new(&bytes);
            let _ = get_query_spec(&mut r); // must not panic
            let mut r = Reader::new(&bytes);
            let _ = get_expr(&mut r);
            let mut r = Reader::new(&bytes);
            let _ = get_rows(&mut r);
        }
    }
}
