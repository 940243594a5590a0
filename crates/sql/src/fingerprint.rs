//! Statement fingerprinting for the compile-once, serve-many plan cache.
//!
//! A fingerprint is a 64-bit hash of a statement's *shape*: the parsed AST
//! with every value-like literal (int, double, string, date) replaced by a
//! numbered bind parameter. Two texts of the same statement that differ
//! only in those literal values — the repeated-statement pattern of an OLTP
//! workload ("heavy traffic from millions of users", ROADMAP) — hash
//! identically, while any structural difference (an extra predicate, a
//! different column order, a renamed table alias) changes the hash.
//!
//! Parameterization is *bind peeking*: each [`AstExpr::Param`] keeps the
//! literal value it replaced, so the first compilation plans with real
//! constants (histograms, index-range bounds) exactly as if the literals
//! were still inline. Later executions of the same shape re-bind the cached
//! plan's parameters to their new values without re-optimizing.
//!
//! `TRUE`/`FALSE`/`NULL` literals stay structural: they steer
//! simplification (`WHERE FALSE` prunes) and almost never vary per
//! execution, so folding them into the hash keeps shapes honest.

use crate::ast::*;
use crate::lexer::keyword;
use taurus_common::Value;

/// A statement with its literals parameterized out.
#[derive(Debug, Clone)]
pub struct ParameterizedStatement {
    /// The statement with [`AstExpr::Param`] nodes in place of value
    /// literals (each carrying its peeked value).
    pub stmt: SelectStmt,
    /// FNV-1a hash of the masked statement shape.
    pub fingerprint: u64,
    /// The extracted literal values, indexed by parameter number.
    pub binds: Vec<Value>,
}

/// Parameterize a parsed statement and fingerprint its shape.
pub fn parameterize(stmt: &SelectStmt) -> ParameterizedStatement {
    let mut binds: Vec<Value> = Vec::new();
    let stmt_p = map_stmt(stmt, &mut |e| match e {
        AstExpr::Lit(v) if is_bindable(v) => {
            let index = binds.len();
            binds.push(v.clone());
            Some(AstExpr::Param { index, value: v.clone() })
        }
        _ => None,
    });
    // Hash the shape directly off the original AST: bindable literals
    // contribute only their type tag, so `x = 5` and `x = 6` collide while
    // `x = 5` and `x = 'a'` do not. A streaming walk — no masked clone, no
    // intermediate string — keeps this on the per-execution hot path cheap.
    let mut h = Shape::new();
    h.stmt(stmt);
    ParameterizedStatement { stmt: stmt_p, fingerprint: h.0, binds }
}

/// A statement fingerprint computed straight off the token stream — no
/// AST. This is the plan cache's serve path: one pass over the source
/// bytes hashes the normalized token shape (keywords canonicalized,
/// value literals masked to type tags) and extracts the literal values
/// in textual order, which for this grammar is exactly the pre-order
/// walk [`parameterize`] uses to number its parameters. The engine
/// verifies that agreement once per shape at insert time and refuses to
/// cache a statement whose orders diverge, so a digest hit can re-bind a
/// cached plan without ever building a parse tree.
#[derive(Debug, Clone)]
pub struct TokenDigest {
    /// FNV-1a hash of the normalized token stream.
    pub fingerprint: u64,
    /// Literal values in token order.
    pub binds: Vec<Value>,
    /// The first token, when it is a keyword (`SELECT`, `INSERT`, ...).
    pub leading_keyword: Option<&'static str>,
}

/// Digest a statement's token stream, or `None` if it doesn't lex (the
/// caller falls through to the parser for a real error message).
///
/// Context rules mirror the parser's literal handling: a string after
/// `DATE` binds as a date, numbers/strings after `LIMIT` or `INTERVAL`
/// stay structural (the parser stores them inline, never as binds), and
/// `TRUE`/`FALSE`/`NULL` are keywords, hence structural.
pub fn token_digest(input: &str) -> Option<TokenDigest> {
    let bytes = input.as_bytes();
    let mut h = Shape::new();
    let mut binds: Vec<Value> = Vec::new();
    let mut i = 0usize;
    // Keyword of the immediately preceding token ("" otherwise).
    let mut prev_kw: &str = "";
    let mut leading_keyword = None;
    let mut first_token = true;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments: `--` to end of line.
        if c == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let first = std::mem::replace(&mut first_token, false);
        // Words: keywords hash canonicalized (case-insensitive), plain
        // identifiers hash as written (the parser keeps their case).
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &input[start..i];
            match keyword(word) {
                Some(kw) => {
                    if first {
                        leading_keyword = Some(kw);
                    }
                    h.byte(b'K');
                    h.text(kw);
                    prev_kw = kw;
                }
                None => {
                    h.byte(b'I');
                    h.text(word);
                    prev_kw = "";
                }
            }
            continue;
        }
        // Backtick-quoted identifiers.
        if c == b'`' {
            i += 1;
            let s = i;
            while i < bytes.len() && bytes[i] != b'`' {
                i += 1;
            }
            if i >= bytes.len() {
                return None;
            }
            h.byte(b'I');
            h.text(&input[s..i]);
            i += 1;
            prev_kw = "";
            continue;
        }
        // Numbers (same shape recognition as the lexer).
        if c.is_ascii_digit() || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            let mut is_float = false;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'.' {
                is_float = true;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                is_float = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let text = &input[start..i];
            if prev_kw == "LIMIT" || prev_kw == "INTERVAL" {
                h.byte(b'N');
                h.text(text);
            } else if is_float {
                binds.push(Value::Double(text.parse().ok()?));
                h.param(1);
            } else {
                match text.parse::<i64>() {
                    Ok(n) => {
                        binds.push(Value::Int(n));
                        h.param(0);
                    }
                    Err(_) => {
                        binds.push(Value::Double(text.parse().ok()?));
                        h.param(1);
                    }
                }
            }
            prev_kw = "";
            continue;
        }
        // String literals with '' escaping.
        if c == b'\'' {
            i += 1;
            let s = i;
            let mut escaped = false;
            loop {
                if i >= bytes.len() {
                    return None;
                }
                if bytes[i] == b'\'' {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        escaped = true;
                        i += 2;
                        continue;
                    }
                    break;
                }
                i += 1;
            }
            let raw = &input[s..i];
            i += 1; // closing quote
            match prev_kw {
                // INTERVAL '3' MONTH: the quantity is structural.
                "INTERVAL" => {
                    h.byte(b'V');
                    h.text(raw);
                }
                "DATE" => {
                    let content = if escaped { raw.replace("''", "'") } else { raw.to_string() };
                    binds.push(Value::date(&content).ok()?);
                    h.param(3);
                }
                _ => {
                    let content = if escaped { raw.replace("''", "'") } else { raw.to_string() };
                    binds.push(Value::str(&content));
                    h.param(2);
                }
            }
            prev_kw = "";
            continue;
        }
        // Operators (canonicalizing `!=` to `<>`, like the lexer).
        let two = if i + 1 < bytes.len() { &input[i..i + 2] } else { "" };
        if let Some(sym) = match two {
            "<=" => Some("<="),
            ">=" => Some(">="),
            "<>" | "!=" => Some("<>"),
            _ => None,
        } {
            h.byte(b'S');
            h.text(sym);
            i += 2;
            prev_kw = "";
            continue;
        }
        if !matches!(
            c,
            b'(' | b')'
                | b','
                | b'.'
                | b'+'
                | b'-'
                | b'*'
                | b'/'
                | b'%'
                | b'='
                | b'<'
                | b'>'
                | b';'
        ) {
            return None;
        }
        h.byte(b'S');
        h.byte(c);
        i += 1;
        prev_kw = "";
    }
    Some(TokenDigest { fingerprint: h.0, binds, leading_keyword })
}

/// FNV-1a 64-bit: deterministic, dependency-free, good avalanche for short
/// keys — the standard in-process choice when SipHash's random keying would
/// make fingerprints unstable across sessions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which literal values become bind parameters. Booleans and NULL remain
/// structural (see module docs).
fn is_bindable(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Double(_) | Value::Str(_) | Value::Date(_))
}

// ---------------------------------------------------------------------
// Streaming structural hash. Every AST node feeds a distinct tag byte plus
// its scalar fields into an incremental FNV-1a state; variable-length parts
// (strings, vecs) are length-prefixed so adjacent fields can't alias.
// Bindable literals and already-minted params hash as `PARAM + type tag`
// only — their payload is invisible to the fingerprint.
// ---------------------------------------------------------------------

struct Shape(u64);

impl Shape {
    fn new() -> Shape {
        Shape(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt_text(&mut self, s: &Option<String>) {
        match s {
            None => self.byte(0),
            Some(s) => {
                self.byte(1);
                self.text(s);
            }
        }
    }

    /// A bind-parameter position: `P` plus the value's type tag.
    fn param(&mut self, type_tag: u8) {
        self.byte(b'P');
        self.byte(type_tag);
    }

    /// A bindable literal (or a param's peeked value): type tag only.
    fn value_type(&mut self, v: &Value) {
        self.param(match v {
            Value::Int(_) => 0,
            Value::Double(_) => 1,
            Value::Str(_) => 2,
            Value::Date(_) => 3,
            Value::Null => 4,
            Value::Bool(_) => 5,
        });
    }

    /// A structural literal (TRUE/FALSE/NULL): type tag plus payload.
    fn value_full(&mut self, v: &Value) {
        self.byte(b'L');
        match v {
            Value::Null => self.byte(0),
            Value::Bool(b) => {
                self.byte(1);
                self.byte(*b as u8);
            }
            Value::Int(i) => {
                self.byte(2);
                self.num(*i as u64);
            }
            Value::Double(d) => {
                self.byte(3);
                self.num(d.to_bits());
            }
            Value::Str(s) => {
                self.byte(4);
                self.text(s);
            }
            Value::Date(d) => {
                self.byte(5);
                self.num(*d as u64);
            }
        }
    }

    fn stmt(&mut self, s: &SelectStmt) {
        self.num(s.ctes.len() as u64);
        for c in &s.ctes {
            self.text(&c.name);
            self.num(c.columns.len() as u64);
            for col in &c.columns {
                self.text(col);
            }
            self.byte(c.recursive as u8);
            self.stmt(&c.query);
        }
        self.query_expr(&s.body);
    }

    fn query_expr(&mut self, qe: &QueryExpr) {
        match qe {
            QueryExpr::Block(b) => {
                self.byte(0);
                self.block(b);
            }
            QueryExpr::SetOp { op, all, left, right } => {
                self.byte(1);
                self.byte(*op as u8);
                self.byte(*all as u8);
                self.query_expr(left);
                self.query_expr(right);
            }
        }
    }

    fn block(&mut self, b: &QueryBlock) {
        self.byte(b.distinct as u8);
        self.num(b.select.len() as u64);
        for s in &b.select {
            match s {
                SelectItem::Wildcard => self.byte(0),
                SelectItem::Expr { expr, alias } => {
                    self.byte(1);
                    self.expr(expr);
                    self.opt_text(alias);
                }
            }
        }
        self.num(b.from.len() as u64);
        for t in &b.from {
            self.table_ref(t);
        }
        self.opt_expr(&b.where_clause);
        self.num(b.group_by.len() as u64);
        for e in &b.group_by {
            self.expr(e);
        }
        self.opt_expr(&b.having);
        self.num(b.order_by.len() as u64);
        for o in &b.order_by {
            self.expr(&o.expr);
            self.byte(o.desc as u8);
        }
        match b.limit {
            None => self.byte(0),
            Some(n) => {
                self.byte(1);
                self.num(n);
            }
        }
    }

    fn table_ref(&mut self, t: &TableRef) {
        match t {
            TableRef::Base { name, alias } => {
                self.byte(0);
                self.text(name);
                self.opt_text(alias);
            }
            TableRef::Derived { query, alias } => {
                self.byte(1);
                self.stmt(query);
                self.text(alias);
            }
            TableRef::Join { left, right, kind, on } => {
                self.byte(2);
                self.table_ref(left);
                self.table_ref(right);
                self.byte(*kind as u8);
                self.opt_expr_ref(on.as_ref());
            }
        }
    }

    fn opt_expr(&mut self, e: &Option<AstExpr>) {
        self.opt_expr_ref(e.as_ref());
    }

    fn opt_expr_ref(&mut self, e: Option<&AstExpr>) {
        match e {
            None => self.byte(0),
            Some(e) => {
                self.byte(1);
                self.expr(e);
            }
        }
    }

    fn expr(&mut self, e: &AstExpr) {
        match e {
            AstExpr::Name(segs) => {
                self.byte(0);
                self.num(segs.len() as u64);
                for s in segs {
                    self.text(s);
                }
            }
            AstExpr::Lit(v) if is_bindable(v) => self.value_type(v),
            AstExpr::Lit(v) => self.value_full(v),
            AstExpr::Param { value, .. } => self.value_type(value),
            AstExpr::Interval { n, unit } => {
                self.byte(1);
                self.num(*n as u64);
                self.byte(*unit as u8);
            }
            AstExpr::Binary { op, left, right } => {
                self.byte(2);
                self.byte(*op as u8);
                self.expr(left);
                self.expr(right);
            }
            AstExpr::Not(x) => {
                self.byte(3);
                self.expr(x);
            }
            AstExpr::Neg(x) => {
                self.byte(4);
                self.expr(x);
            }
            AstExpr::IsNull { expr, negated } => {
                self.byte(5);
                self.expr(expr);
                self.byte(*negated as u8);
            }
            AstExpr::Func { name, args, distinct, star } => {
                self.byte(6);
                self.text(name);
                self.num(args.len() as u64);
                for a in args {
                    self.expr(a);
                }
                self.byte(*distinct as u8);
                self.byte(*star as u8);
            }
            AstExpr::Case { operand, branches, else_expr } => {
                self.byte(7);
                self.opt_expr_ref(operand.as_deref());
                self.num(branches.len() as u64);
                for (w, t) in branches {
                    self.expr(w);
                    self.expr(t);
                }
                self.opt_expr_ref(else_expr.as_deref());
            }
            AstExpr::InList { expr, list, negated } => {
                self.byte(8);
                self.expr(expr);
                self.num(list.len() as u64);
                for i in list {
                    self.expr(i);
                }
                self.byte(*negated as u8);
            }
            AstExpr::InSubquery { expr, query, negated } => {
                self.byte(9);
                self.expr(expr);
                self.stmt(query);
                self.byte(*negated as u8);
            }
            AstExpr::Exists { query, negated } => {
                self.byte(10);
                self.stmt(query);
                self.byte(*negated as u8);
            }
            AstExpr::ScalarSubquery(q) => {
                self.byte(11);
                self.stmt(q);
            }
            AstExpr::Like { expr, pattern, negated } => {
                self.byte(12);
                self.expr(expr);
                self.expr(pattern);
                self.byte(*negated as u8);
            }
            AstExpr::Between { expr, low, high, negated } => {
                self.byte(13);
                self.expr(expr);
                self.expr(low);
                self.expr(high);
                self.byte(*negated as u8);
            }
            AstExpr::Cast { expr, type_name } => {
                self.byte(14);
                self.expr(expr);
                self.text(type_name);
            }
            AstExpr::Extract { field, expr } => {
                self.byte(15);
                self.text(field);
                self.expr(expr);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generic AST rebuild with a pre-order expression hook. The hook returns
// `Some(replacement)` to substitute a node (children not visited) or `None`
// to recurse. One walk serves both parameterization and masking.
// ---------------------------------------------------------------------

fn map_stmt(stmt: &SelectStmt, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> SelectStmt {
    SelectStmt {
        ctes: stmt
            .ctes
            .iter()
            .map(|c| Cte {
                name: c.name.clone(),
                columns: c.columns.clone(),
                query: Box::new(map_stmt(&c.query, f)),
                recursive: c.recursive,
            })
            .collect(),
        body: map_query_expr(&stmt.body, f),
    }
}

fn map_query_expr(qe: &QueryExpr, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> QueryExpr {
    match qe {
        QueryExpr::Block(b) => QueryExpr::Block(Box::new(map_block(b, f))),
        QueryExpr::SetOp { op, all, left, right } => QueryExpr::SetOp {
            op: *op,
            all: *all,
            left: Box::new(map_query_expr(left, f)),
            right: Box::new(map_query_expr(right, f)),
        },
    }
}

fn map_block(b: &QueryBlock, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> QueryBlock {
    QueryBlock {
        distinct: b.distinct,
        select: b
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr { expr, alias } => {
                    SelectItem::Expr { expr: map_expr(expr, f), alias: alias.clone() }
                }
            })
            .collect(),
        from: b.from.iter().map(|t| map_table_ref(t, f)).collect(),
        where_clause: b.where_clause.as_ref().map(|e| map_expr(e, f)),
        group_by: b.group_by.iter().map(|e| map_expr(e, f)).collect(),
        having: b.having.as_ref().map(|e| map_expr(e, f)),
        order_by: b
            .order_by
            .iter()
            .map(|o| OrderItem { expr: map_expr(&o.expr, f), desc: o.desc })
            .collect(),
        limit: b.limit,
    }
}

fn map_table_ref(t: &TableRef, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> TableRef {
    match t {
        TableRef::Base { name, alias } => {
            TableRef::Base { name: name.clone(), alias: alias.clone() }
        }
        TableRef::Derived { query, alias } => {
            TableRef::Derived { query: Box::new(map_stmt(query, f)), alias: alias.clone() }
        }
        TableRef::Join { left, right, kind, on } => TableRef::Join {
            left: Box::new(map_table_ref(left, f)),
            right: Box::new(map_table_ref(right, f)),
            kind: *kind,
            on: on.as_ref().map(|e| map_expr(e, f)),
        },
    }
}

fn map_expr(e: &AstExpr, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> AstExpr {
    if let Some(replacement) = f(e) {
        return replacement;
    }
    match e {
        AstExpr::Name(_) | AstExpr::Lit(_) | AstExpr::Param { .. } | AstExpr::Interval { .. } => {
            e.clone()
        }
        AstExpr::Binary { op, left, right } => AstExpr::Binary {
            op: *op,
            left: Box::new(map_expr(left, f)),
            right: Box::new(map_expr(right, f)),
        },
        AstExpr::Not(x) => AstExpr::Not(Box::new(map_expr(x, f))),
        AstExpr::Neg(x) => AstExpr::Neg(Box::new(map_expr(x, f))),
        AstExpr::IsNull { expr, negated } => {
            AstExpr::IsNull { expr: Box::new(map_expr(expr, f)), negated: *negated }
        }
        AstExpr::Func { name, args, distinct, star } => AstExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| map_expr(a, f)).collect(),
            distinct: *distinct,
            star: *star,
        },
        AstExpr::Case { operand, branches, else_expr } => AstExpr::Case {
            operand: operand.as_ref().map(|o| Box::new(map_expr(o, f))),
            branches: branches.iter().map(|(w, t)| (map_expr(w, f), map_expr(t, f))).collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(map_expr(x, f))),
        },
        AstExpr::InList { expr, list, negated } => AstExpr::InList {
            expr: Box::new(map_expr(expr, f)),
            list: list.iter().map(|i| map_expr(i, f)).collect(),
            negated: *negated,
        },
        AstExpr::InSubquery { expr, query, negated } => AstExpr::InSubquery {
            expr: Box::new(map_expr(expr, f)),
            query: Box::new(map_stmt(query, f)),
            negated: *negated,
        },
        AstExpr::Exists { query, negated } => {
            AstExpr::Exists { query: Box::new(map_stmt(query, f)), negated: *negated }
        }
        AstExpr::ScalarSubquery(q) => AstExpr::ScalarSubquery(Box::new(map_stmt(q, f))),
        AstExpr::Like { expr, pattern, negated } => AstExpr::Like {
            expr: Box::new(map_expr(expr, f)),
            pattern: Box::new(map_expr(pattern, f)),
            negated: *negated,
        },
        AstExpr::Between { expr, low, high, negated } => AstExpr::Between {
            expr: Box::new(map_expr(expr, f)),
            low: Box::new(map_expr(low, f)),
            high: Box::new(map_expr(high, f)),
            negated: *negated,
        },
        AstExpr::Cast { expr, type_name } => {
            AstExpr::Cast { expr: Box::new(map_expr(expr, f)), type_name: type_name.clone() }
        }
        AstExpr::Extract { field, expr } => {
            AstExpr::Extract { field: field.clone(), expr: Box::new(map_expr(expr, f)) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn fp(sql: &str) -> ParameterizedStatement {
        parameterize(&parse_select(sql).unwrap())
    }

    #[test]
    fn literals_are_extracted_in_order() {
        let p = fp("SELECT a FROM t WHERE b = 5 AND c BETWEEN 10 AND 20 AND d LIKE 'x%'");
        assert_eq!(p.binds, vec![Value::Int(5), Value::Int(10), Value::Int(20), Value::str("x%")]);
    }

    #[test]
    fn same_shape_different_literals_same_fingerprint() {
        let a = fp("SELECT a FROM t WHERE b = 5 AND c < 100");
        let b = fp("SELECT a FROM t WHERE b = 99 AND c < 7");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.binds, b.binds);
    }

    #[test]
    fn literal_type_changes_fingerprint() {
        let a = fp("SELECT a FROM t WHERE b = 5");
        let b = fp("SELECT a FROM t WHERE b = 'five'");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn structural_changes_change_fingerprint() {
        let base = fp("SELECT a, b FROM t WHERE a = 1");
        // Different column order.
        assert_ne!(base.fingerprint, fp("SELECT b, a FROM t WHERE a = 1").fingerprint);
        // Added predicate.
        assert_ne!(base.fingerprint, fp("SELECT a, b FROM t WHERE a = 1 AND b = 2").fingerprint);
        // Table alias.
        assert_ne!(base.fingerprint, fp("SELECT a, b FROM t x WHERE a = 1").fingerprint);
        // Bool literals stay structural.
        assert_ne!(
            fp("SELECT a FROM t WHERE TRUE").fingerprint,
            fp("SELECT a FROM t WHERE FALSE").fingerprint
        );
    }

    #[test]
    fn subquery_literals_participate() {
        let a = fp("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a AND u.y = 3)");
        let b = fp("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a AND u.y = 9)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.binds.len(), 2); // SELECT 1 and the comparison literal
        let c = fp("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)");
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn token_digest_binds_agree_with_parameterize() {
        // The digest's textual bind order must equal the AST walk's
        // parameter order — the contract that makes digest-keyed rebinding
        // sound. (The engine also re-verifies this per shape at insert.)
        for sql in [
            "SELECT a FROM t WHERE b = 5 AND c BETWEEN 10 AND 20 AND d LIKE 'x%'",
            "SELECT SUM(x) FROM t WHERE d >= DATE '1995-03-01' + INTERVAL '3' MONTH LIMIT 5",
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a AND u.y = 3)",
            "SELECT a FROM t WHERE b IN (1, 2.5, 'it''s') AND c = -7",
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t WHERE a IS NOT NULL",
        ] {
            let d = token_digest(sql).expect(sql);
            let p = fp(sql);
            assert_eq!(d.binds, p.binds, "bind disagreement for: {sql}");
        }
    }

    #[test]
    fn token_digest_same_shape_same_fingerprint() {
        let a = token_digest("SELECT a FROM t WHERE b = 5 AND d = DATE '1994-01-01'").unwrap();
        let b = token_digest("SELECT a FROM t WHERE b = 99 AND d = DATE '1997-06-30'").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.binds, b.binds);
        // Keyword case is canonicalized.
        let c = token_digest("select a from t where b = 5 and d = date '1994-01-01'").unwrap();
        assert_eq!(a.fingerprint, c.fingerprint);
        // Literal type changes and structural changes alter the hash.
        let ty = token_digest("SELECT a FROM t WHERE b = 'x' AND d = DATE '1994-01-01'").unwrap();
        assert_ne!(a.fingerprint, ty.fingerprint);
        let cols =
            token_digest("SELECT a, b FROM t WHERE b = 5 AND d = DATE '1994-01-01'").unwrap();
        assert_ne!(a.fingerprint, cols.fingerprint);
    }

    #[test]
    fn token_digest_limit_and_interval_stay_structural() {
        let a = token_digest("SELECT a FROM t ORDER BY a LIMIT 5").unwrap();
        let b = token_digest("SELECT a FROM t ORDER BY a LIMIT 10").unwrap();
        assert_ne!(a.fingerprint, b.fingerprint, "LIMIT is not a bind position");
        assert!(a.binds.is_empty());
        let c = token_digest("SELECT d + INTERVAL '3' MONTH FROM t").unwrap();
        let d = token_digest("SELECT d + INTERVAL '4' MONTH FROM t").unwrap();
        assert_ne!(c.fingerprint, d.fingerprint, "INTERVAL quantity is structural");
        assert!(c.binds.is_empty());
    }

    #[test]
    fn token_digest_reports_the_leading_keyword() {
        let lead = |sql: &str| token_digest(sql).unwrap().leading_keyword;
        assert_eq!(lead("-- note\n  insert INTO t VALUES (1)"), Some("INSERT"));
        assert_eq!(lead("SELECT a FROM t WHERE b IN (SELECT c FROM u)"), Some("SELECT"));
        assert_eq!(lead("(SELECT a FROM t)"), None, "a symbol leads");
        assert_eq!(lead("t INSERT"), None, "an identifier leads");
    }

    #[test]
    fn token_digest_rejects_unlexable_input() {
        assert!(token_digest("SELECT 'unterminated").is_none());
        assert!(token_digest("a ? b").is_none());
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
