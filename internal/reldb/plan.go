package reldb

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file is the bind step: a statement tree (parsed, or built by
// package sqlgen) is lowered once into a plan the executor runs without
// looking at a name again. Binding resolves every column reference to a
// frame slot and a column ordinal, turns every operator into an opcode,
// splits each query block's WHERE into conjuncts, and decides each FROM
// source's access path — index probe, hash probe of a derived table, or
// scan — together with the key expressions and the conjuncts the probe
// makes redundant. Unknown tables, aliases and columns, ambiguous
// columns and duplicate aliases are bind errors: they surface before a
// row is read, whatever the data.
//
// A plan binds to a catalog — table names, column order and index column
// sets — never to a DB or its rows. Every generation of a site's
// database presents the same catalog, so one plan, cached on its
// statement, serves them all; a database whose catalog differs binds
// afresh.

// catalog is one database's shape as far as binding can see it — table
// names, column order, index names and column sets — with its tables in
// name order, which is how an executing plan reaches a table without a
// name lookup. id digests the shape: a plan records the id it was bound
// under and runs against any database that presents the same one.
type catalog struct {
	id     [sha256.Size]byte
	byName map[string]*Table // the database's own table map
	byID   []*Table
}

// catalog returns the database's catalog, computing it after the first
// use and after every DDL statement. The caller holds db.mu or the
// database is frozen; concurrent readers may both compute it, and they
// compute the same one.
func (db *DB) catalog() *catalog {
	if c := db.cat.Load(); c != nil {
		return c
	}
	c := &catalog{byName: db.tables, byID: make([]*Table, 0, len(db.tables))}
	for _, t := range db.tables {
		c.byID = append(c.byID, t)
	}
	sort.Slice(c.byID, func(i, j int) bool { return c.byID[i].key < c.byID[j].key })
	var shape []byte
	for _, t := range c.byID {
		shape = strconv.AppendQuote(shape, t.key)
		for _, col := range t.schema.lower {
			shape = strconv.AppendQuote(append(shape, ','), col)
		}
		for _, ix := range t.byName {
			shape = strconv.AppendQuote(append(shape, ';'), ix.name)
			for _, col := range ix.columns {
				shape = strconv.AppendInt(append(shape, ','), int64(col), 10)
			}
		}
		shape = append(shape, '\n')
	}
	c.id = sha256.Sum256(shape)
	db.cat.Store(c)
	return c
}

// table finds a table's position in byID by name, case-insensitively.
func (c *catalog) table(name string) (int, bool) {
	var buf [64]byte
	t, ok := c.byName[string(appendLower(buf[:0], name))]
	return slices.Index(c.byID, t), ok
}

// appendLower appends name to b, lowercased as strings.ToLower would.
func appendLower(b []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 {
			return append(b[:len(b)-i], strings.ToLower(name)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// sameFold reports whether name, lowercased, is lower.
func sameFold(name, lower string) bool {
	var buf [64]byte
	return string(appendLower(buf[:0], name)) == lower
}

func columnOrdinal(cols []string, name string) int {
	for i, c := range cols {
		if sameFold(name, c) {
			return i
		}
	}
	return -1
}

// plan is a bound statement. It is immutable once bound: any number of
// goroutines execute it at once, each with its own execState, against
// any database whose catalog is cat.
//
// A site caches one plan per preference rule it has seen, beside the
// statement tree, so a plan is kept small: blocks, sources, conjuncts
// and expression nodes are flat arrays that refer to each other by
// index — the nodes, most of a plan, are twelve bytes and hold nothing
// the collector has to trace — and constants and function calls point
// back into the tree they were bound from.
type plan struct {
	cat     [sha256.Size]byte // the catalog.id it was bound under
	nSlots  int               // frame slots: one per FROM source of every block
	nParams int               // parameters the statement reads
	blocks  []block           // blocks[0] is the statement's own block
	sources []source
	where   []conjunct
	nodes   []node
	lists   []int32 // node lists: a length, then that many entries
	lits    []*Value
	calls   []*FuncExpr
}

// list returns the list stored at id; -1 is the empty list.
func (p *plan) list(id int32) []int32 {
	if id < 0 {
		return nil
	}
	return p.lists[id+1 : id+1+p.lists[id]]
}

func (p *plan) sourcesOf(b *block) []source { return p.sources[b.src : b.src+b.nsrc] }

func (p *plan) whereOf(b *block) []conjunct { return p.where[b.where : b.where+b.nwhere] }

// block is one bound query block.
type block struct {
	outer         int32 // the block a correlated reference looks in next, or -1
	base          int32 // frame slot of the first source; the rest follow
	src, nsrc     int32 // its sources, in plan.sources
	where, nwhere int32 // its WHERE conjuncts, in plan.where
	items         int32 // list: the projection; -1 for SELECT *
	groupBy       int32 // list
	having        int32 // node, or -1
	orderBy       int32 // list of (node, 1 if descending) pairs
	limit         int32 // -1 means none
	star          bool
	pure          bool // evaluating items cannot fail or charge steps
	grouped       bool
	distinct      bool
	// simple blocks produce rows as the join finds them, so a caller
	// that needs only the first few can stop the join early.
	simple  bool
	columns []string // output column names
}

// conjunct is one AND-ed term of a WHERE clause. cover is the frame slot
// of the source whose probe key is built from it — rows that probe
// returns satisfy the conjunct, so the filter skips it — or -1.
type conjunct struct{ e, cover int32 }

// source is one bound FROM item.
type source struct {
	name string   // binding name, lowercase
	cols []string // column names, lowercase
	// A base table reads byID[table]; index is the position of the
	// chosen index in Table.byName, or -1 to scan.
	table, index int32
	// A derived table materializes block sub on block entry. view is the
	// table a bare "(SELECT * FROM t)" reads, or -1: that shape is served
	// from the view cache, or materialized once per statement when the
	// view cache is off. hash names the columns its hash probe covers.
	sub, view int32
	hash      *hashColumns
	// key lists the probe key expressions, in index (or hash) column
	// order; -1 means no probe is possible.
	key int32
}

// hashColumns is the column set a derived table is hashed on and the
// name its index is memoized under.
type hashColumns struct {
	cols []int
	name string
}

type opcode uint8

const (
	opLit   opcode = iota // lits[a]
	opParam               // parameter a
	opCol                 // column b of frame slot a
	opNot                 // operand a, as are the next
	opNeg
	opIsNull
	opAnd // operands a and b, as are the next
	opOr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLike
	opConcat
	opAdd
	opSub
	opMul
	opDiv
	opIn     // a IN (list b)
	opInSub  // a IN (block b)
	opExists // EXISTS (block b)
	opScalar // (block b) as a value
	opFunc   // scalar function calls[a] over list b
	opAgg    // aggregate calls[a] over the current group
	opCase   // list b: cond, then, cond, then, ... [, else]
)

var binaryOps = map[string]opcode{
	"AND": opAnd, "OR": opOr, "=": opEq, "<>": opNe, "<": opLt, "<=": opLe,
	">": opGt, ">=": opGe, "LIKE": opLike, "||": opConcat,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
}

// node is one bound expression node; its operands are other nodes, lists
// or blocks of the same plan, by index.
type node struct {
	op   opcode
	neg  bool // IS NOT NULL, NOT IN, NOT EXISTS
	qual bool // opCol: the reference named its table
	a, b int32
}

// binder lowers one statement into p.
type binder struct {
	dc *catalog
	p  *plan
	// pending is a stack of the node ids of the lists being bound: a
	// list is contiguous in plan.lists, so it is written once complete.
	pending []int32
	buf     [16]int32 // pending's first backing array
}

func newBinder(dc *catalog) *binder {
	bd := &binder{dc: dc, p: &plan{cat: dc.id}}
	bd.pending = bd.buf[:0]
	return bd
}

// bindSelect binds a SELECT against the database's catalog. The plan's
// arrays are sized to the statement first, so a plan is a fixed handful
// of allocations with no slack.
func bindSelect(dc *catalog, sel *SelectStmt) (*plan, error) {
	var n sizes
	n.block(sel)
	bd := newBinder(dc)
	bd.p.blocks = make([]block, 0, n.blocks)
	bd.p.sources = make([]source, 0, n.sources)
	bd.p.where = make([]conjunct, 0, n.conjuncts)
	bd.p.nodes = make([]node, 0, n.nodes)
	bd.p.lists = make([]int32, 0, n.lists)
	bd.p.lits = make([]*Value, 0, n.lits)
	_, err := bd.selectBlock(sel, -1)
	return bd.p, err
}

// sizes counts what binding a statement appends to each of the plan's
// arrays (an upper bound: a probe key takes list cells only for the
// conjuncts an index covers).
type sizes struct{ blocks, sources, conjuncts, nodes, lists, lits int }

func (n *sizes) block(s *SelectStmt) {
	n.blocks++
	n.sources += len(s.From)
	for _, fi := range s.From {
		if fi.Subquery != nil {
			n.block(fi.Subquery)
		}
	}
	c := countConjuncts(s.Where)
	n.conjuncts += c
	n.nodes -= max(c-1, 0) // the ANDs that join the conjuncts are not bound
	n.expr(s.Where)
	n.lists += c + len(s.From) // the probe keys
	n.list(len(s.Items))
	for _, it := range s.Items {
		n.expr(it.Expr)
	}
	n.list(len(s.GroupBy))
	for _, g := range s.GroupBy {
		n.expr(g)
	}
	n.expr(s.Having)
	n.list(2 * len(s.OrderBy))
	for _, oi := range s.OrderBy {
		n.expr(oi.Expr)
	}
}

func (n *sizes) list(length int) {
	if length > 0 {
		n.lists += 1 + length
	}
}

func (n *sizes) expr(e Expr) {
	if e == nil {
		return
	}
	n.nodes++
	switch x := e.(type) {
	case *Literal:
		n.lits++
	case *BinaryExpr:
		n.expr(x.Left)
		n.expr(x.Right)
	case *UnaryExpr:
		n.expr(x.Operand)
	case *IsNullExpr:
		n.expr(x.Operand)
	case *InExpr:
		n.expr(x.Operand)
		n.list(len(x.List))
		for _, l := range x.List {
			n.expr(l)
		}
		if x.Subquery != nil {
			n.block(x.Subquery)
		}
	case *ExistsExpr:
		n.block(x.Subquery)
	case *SubqueryExpr:
		n.block(x.Subquery)
	case *FuncExpr:
		n.list(len(x.Args))
		for _, a := range x.Args {
			n.expr(a)
		}
	case *CaseExpr:
		n.list(2*len(x.Whens) + 1)
		for _, w := range x.Whens {
			n.expr(w.Cond)
			n.expr(w.Then)
		}
		n.expr(x.Else)
	}
}

// resolve finds the frame slot and ordinal a column reference names,
// searching the sources of block bi before those of the blocks around
// it. An unqualified name must resolve unambiguously within the
// innermost block that knows it. Block -1 is the empty scope of an
// INSERT's values.
func (bd *binder) resolve(bi int32, table, column string) (slot, ord int32, err error) {
	for ; bi >= 0; bi = bd.p.blocks[bi].outer {
		b := &bd.p.blocks[bi]
		found := int32(-1)
		for i, src := range bd.p.sourcesOf(b) {
			if table != "" && !sameFold(table, src.name) {
				continue
			}
			o := columnOrdinal(src.cols, column)
			switch {
			case o < 0 && table != "":
				return 0, 0, fmt.Errorf("sql: column %s.%s does not exist", src.name, column)
			case o < 0:
				continue
			case found >= 0:
				return 0, 0, fmt.Errorf("sql: column %s is ambiguous", column)
			}
			found, ord = b.base+int32(i), int32(o)
			if table != "" {
				break // names are unique within a block
			}
		}
		if found >= 0 {
			return found, ord, nil
		}
	}
	if table != "" {
		return 0, 0, fmt.Errorf("sql: unknown table or alias %s", strings.ToLower(table))
	}
	return 0, 0, fmt.Errorf("sql: column %s does not exist", column)
}

// selectBlock binds one query block and returns its index. outer is the
// block a correlated subquery is evaluated in; a derived table sees what
// its parent sees from outside, not its siblings.
func (bd *binder) selectBlock(sel *SelectStmt, outer int32) (int32, error) {
	p := bd.p
	bi, src0, n := int32(len(p.blocks)), len(p.sources), len(sel.From)
	p.blocks = append(p.blocks, block{
		outer: outer, base: int32(p.nSlots), src: int32(src0), nsrc: int32(n),
		items: -1, groupBy: -1, having: -1, orderBy: -1, limit: int32(sel.Limit),
		star: sel.Star, distinct: sel.Distinct,
	})
	p.nSlots += n
	p.sources = slices.Grow(p.sources, n)[:src0+n]
	for i, fi := range sel.From {
		src := source{name: strings.ToLower(fi.Name()), table: -1, index: -1, sub: -1, view: -1, key: -1}
		if fi.Subquery != nil {
			sub, err := bd.selectBlock(fi.Subquery, outer)
			if err != nil {
				return 0, err
			}
			src.sub, src.cols = sub, p.blocks[sub].columns
			if cacheableDerived(fi.Subquery) {
				src.view = p.sources[p.blocks[sub].src].table
			}
		} else {
			id, ok := bd.dc.table(fi.Table)
			if !ok {
				return 0, fmt.Errorf("sql: table %s does not exist", fi.Table)
			}
			src.table, src.cols = int32(id), bd.dc.byID[id].schema.lower
		}
		for _, earlier := range p.sources[src0 : src0+i] {
			if earlier.name == src.name {
				return 0, fmt.Errorf("sql: duplicate table alias %s", src.name)
			}
		}
		p.sources[src0+i] = src
	}

	grouped := len(sel.GroupBy) > 0 || hasAggregate(sel.Having)
	for _, it := range sel.Items {
		grouped = grouped || hasAggregate(it.Expr)
	}
	if grouped && sel.Star {
		return 0, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	}
	if err := bd.where(bi, sel.Where); err != nil {
		return 0, err
	}

	var columns []string
	items, pure := int32(-1), true
	switch {
	case !sel.Star:
		columns = make([]string, len(sel.Items))
		mark := len(bd.pending)
		for i, it := range sel.Items {
			e, err := bd.expr(it.Expr, bi)
			if err != nil {
				return 0, err
			}
			bd.pending = append(bd.pending, e)
			pure = pure && p.nodes[e].op <= opCol
			columns[i] = it.Alias
			if cr, ok := it.Expr.(*ColumnRef); it.Alias == "" && ok {
				columns[i] = strings.ToLower(cr.Column)
			} else if it.Alias == "" {
				columns[i] = fmt.Sprintf("col%d", i+1)
			}
		}
		items = bd.list(mark)
	case n == 1:
		columns = p.sources[src0].cols
	default:
		for _, src := range p.sources[src0 : src0+n] {
			columns = append(columns, src.cols...)
		}
	}
	groupBy, err := bd.exprs(sel.GroupBy, bi)
	if err != nil {
		return 0, err
	}
	having := int32(-1)
	if sel.Having != nil {
		if having, err = bd.expr(sel.Having, bi); err != nil {
			return 0, err
		}
	}
	mark := len(bd.pending)
	for _, oi := range sel.OrderBy {
		e, err := bd.expr(oi.Expr, bi)
		if err != nil {
			return 0, err
		}
		desc := int32(0)
		if oi.Desc {
			desc = 1
		}
		bd.pending = append(bd.pending, e, desc)
	}
	orderBy := bd.list(mark)

	b := &p.blocks[bi]
	b.columns, b.items, b.pure = columns, items, pure
	b.grouped, b.groupBy, b.having, b.orderBy = grouped, groupBy, having, orderBy
	b.simple = !grouped && !sel.Distinct && len(sel.OrderBy) == 0 && sel.Limit < 0
	for i := range n {
		bd.accessPath(b, i)
	}
	return bi, nil
}

// tableBlock binds the one-table scope UPDATE and DELETE evaluate their
// WHERE clause (and SET values) in, as block 0. The caller scans the
// table itself.
func (bd *binder) tableBlock(table string, where Expr) error {
	id, ok := bd.dc.table(table)
	if !ok {
		return fmt.Errorf("sql: table %s does not exist", table)
	}
	t := bd.dc.byID[id]
	bd.p.blocks = append(bd.p.blocks, block{outer: -1, nsrc: 1})
	bd.p.sources = append(bd.p.sources, source{name: t.key, cols: t.schema.lower, table: int32(id), index: -1, sub: -1, view: -1, key: -1})
	bd.p.nSlots = 1
	return bd.where(0, where)
}

// where binds a WHERE clause as the list of its conjuncts.
func (bd *binder) where(bi int32, where Expr) error {
	p := bd.p
	w0, c := len(p.where), countConjuncts(where)
	p.where = slices.Grow(p.where, c)[:w0+c]
	p.blocks[bi].where, p.blocks[bi].nwhere = int32(w0), int32(c)
	_, err := bd.conjuncts(bi, where, w0)
	return err
}

func countConjuncts(e Expr) int {
	if e == nil {
		return 0
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return countConjuncts(be.Left) + countConjuncts(be.Right)
	}
	return 1
}

// conjuncts binds the conjuncts of e into plan.where from position at
// and returns the position after them.
func (bd *binder) conjuncts(bi int32, e Expr, at int) (int, error) {
	if e == nil {
		return at, nil
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		at, err := bd.conjuncts(bi, be.Left, at)
		if err != nil {
			return at, err
		}
		return bd.conjuncts(bi, be.Right, at)
	}
	x, err := bd.expr(e, bi)
	bd.p.where[at] = conjunct{e: x, cover: -1}
	return at + 1, err
}

// accessPath decides how source i of b is read: it collects the equality
// conjuncts "src.col = <expr>" whose other side is evaluable before the
// source is bound (constants, parameters, earlier sources of this block,
// enclosing blocks), picks the index they cover best — a derived table
// hashes on all of them — and marks those conjuncts as covered by the
// probe.
func (bd *binder) accessPath(b *block, i int) {
	p := bd.p
	src := &p.sources[int(b.src)+i]
	slot := b.base + int32(i)
	where := p.whereOf(b)
	// usable holds, per column of the source that some conjunct keys,
	// the first such conjunct and its key expression, ordered by column.
	type keyed struct {
		col      int
		conjunct *conjunct
		key      int32
	}
	var buf [8]keyed
	usable := buf[:0]
	for ci := range where {
		e := p.nodes[where[ci].e]
		if e.op != opEq {
			continue
		}
		col, key := e.a, e.b
		if !bd.keyFor(col, key, slot) {
			if col, key = key, col; !bd.keyFor(col, key, slot) {
				continue
			}
		}
		ord := int(p.nodes[col].b)
		at := 0
		for at < len(usable) && usable[at].col < ord {
			at++
		}
		if at == len(usable) || usable[at].col != ord {
			usable = slices.Insert(usable, at, keyed{ord, &where[ci], key})
		}
	}
	if len(usable) == 0 {
		return
	}
	var colBuf [8]int
	cols := colBuf[:0]
	for _, u := range usable {
		cols = append(cols, u.col)
	}
	if src.sub >= 0 {
		src.hash = &hashColumns{cols: slices.Clone(cols)}
		src.hash.name = fmt.Sprint(src.hash.cols)
	} else {
		t := bd.dc.byID[src.table]
		ix := bestIndex(t, cols)
		if ix == nil {
			return
		}
		src.index, cols = int32(slices.Index(t.byName, ix)), ix.columns
	}
	mark := len(bd.pending)
	for _, col := range cols {
		at := slices.IndexFunc(usable, func(u keyed) bool { return u.col == col })
		bd.pending = append(bd.pending, usable[at].key)
		usable[at].conjunct.cover = slot
	}
	src.key = bd.list(mark)
}

// keyFor reports whether "col = other" keys a probe of the source at
// slot: col is a qualified reference to one of its columns and other is
// evaluable before the source is bound.
func (bd *binder) keyFor(col, other, slot int32) bool {
	c := bd.p.nodes[col]
	return c.op == opCol && c.qual && c.a == slot && bd.evaluableBefore(other, slot)
}

// evaluableBefore reports whether node x can be evaluated before the
// source at slot is bound: it may refer only to earlier sources of that
// block and to enclosing blocks, all of which have lower slots.
// Unqualified column references, subqueries, IN and aggregates are
// conservatively rejected.
func (bd *binder) evaluableBefore(x, slot int32) bool {
	e := bd.p.nodes[x]
	switch e.op {
	case opLit, opParam:
		return true
	case opCol:
		return e.qual && e.a < slot
	case opNot, opNeg, opIsNull:
		return bd.evaluableBefore(e.a, slot)
	case opFunc, opCase:
		for _, a := range bd.p.list(e.b) {
			if !bd.evaluableBefore(a, slot) {
				return false
			}
		}
		return true
	case opIn, opInSub, opExists, opScalar, opAgg:
		return false
	}
	return bd.evaluableBefore(e.a, slot) && bd.evaluableBefore(e.b, slot)
}

// list closes the list whose entries were pushed on pending since mark:
// it moves them to plan.lists and returns the list's id, -1 if empty.
func (bd *binder) list(mark int) int32 {
	entries := bd.pending[mark:]
	bd.pending = bd.pending[:mark]
	if len(entries) == 0 {
		return -1
	}
	id := int32(len(bd.p.lists))
	bd.p.lists = append(append(bd.p.lists, int32(len(entries))), entries...)
	return id
}

// exprs binds a list of expressions in the scope of block bi.
func (bd *binder) exprs(es []Expr, bi int32) (int32, error) {
	mark := len(bd.pending)
	for _, e := range es {
		x, err := bd.expr(e, bi)
		if err != nil {
			return -1, err
		}
		bd.pending = append(bd.pending, x)
	}
	return bd.list(mark), nil
}

func (bd *binder) node(n node) int32 {
	bd.p.nodes = append(bd.p.nodes, n)
	return int32(len(bd.p.nodes) - 1)
}

// expr binds one expression tree in the scope of block bi and returns
// its node.
func (bd *binder) expr(e Expr, bi int32) (int32, error) {
	switch x := e.(type) {
	case *Literal:
		bd.p.lits = append(bd.p.lits, &x.Value)
		return bd.node(node{op: opLit, a: int32(len(bd.p.lits) - 1)}), nil

	case *Param:
		bd.p.nParams = max(bd.p.nParams, x.Index+1)
		return bd.node(node{op: opParam, a: int32(x.Index)}), nil

	case *ColumnRef:
		slot, ord, err := bd.resolve(bi, x.Table, x.Column)
		return bd.node(node{op: opCol, qual: x.Table != "", a: slot, b: ord}), err

	case *UnaryExpr:
		op := opNot
		switch x.Op {
		case "NOT":
		case "-":
			op = opNeg
		default:
			return 0, fmt.Errorf("sql: unknown unary operator %s", x.Op)
		}
		operand, err := bd.expr(x.Operand, bi)
		return bd.node(node{op: op, a: operand}), err

	case *BinaryExpr:
		op, ok := binaryOps[x.Op]
		if !ok {
			return 0, fmt.Errorf("sql: unknown operator %s", x.Op)
		}
		l, err := bd.expr(x.Left, bi)
		if err != nil {
			return 0, err
		}
		r, err := bd.expr(x.Right, bi)
		return bd.node(node{op: op, a: l, b: r}), err

	case *IsNullExpr:
		operand, err := bd.expr(x.Operand, bi)
		return bd.node(node{op: opIsNull, neg: x.Negated, a: operand}), err

	case *InExpr:
		operand, err := bd.expr(x.Operand, bi)
		if err != nil {
			return 0, err
		}
		if x.Subquery != nil {
			sub, err := bd.selectBlock(x.Subquery, bi)
			return bd.node(node{op: opInSub, neg: x.Negated, a: operand, b: sub}), err
		}
		list, err := bd.exprs(x.List, bi)
		return bd.node(node{op: opIn, neg: x.Negated, a: operand, b: list}), err

	case *ExistsExpr:
		sub, err := bd.selectBlock(x.Subquery, bi)
		return bd.node(node{op: opExists, neg: x.Negated, b: sub}), err

	case *SubqueryExpr:
		sub, err := bd.selectBlock(x.Subquery, bi)
		return bd.node(node{op: opScalar, b: sub}), err

	case *FuncExpr:
		args, err := bd.exprs(x.Args, bi)
		op := opFunc
		if aggregateFuncs[x.Name] {
			op = opAgg
		}
		bd.p.calls = append(bd.p.calls, x)
		return bd.node(node{op: op, a: int32(len(bd.p.calls) - 1), b: args}), err

	case *CaseExpr:
		mark := len(bd.pending)
		for _, w := range x.Whens {
			cond, err := bd.expr(w.Cond, bi)
			if err != nil {
				return 0, err
			}
			then, err := bd.expr(w.Then, bi)
			if err != nil {
				return 0, err
			}
			bd.pending = append(bd.pending, cond, then)
		}
		if x.Else != nil {
			els, err := bd.expr(x.Else, bi)
			if err != nil {
				return 0, err
			}
			bd.pending = append(bd.pending, els)
		}
		return bd.node(node{op: opCase, b: bd.list(mark)}), nil
	}
	return 0, fmt.Errorf("sql: cannot evaluate %T", e)
}

// cacheableDerived reports whether a derived table is a bare projection of
// one base table with no filtering — the "(SELECT * FROM t)" view-
// reconstruction wrapper the XTABLE path generates. It cannot be
// correlated to any outer binding, so one materialization serves the
// whole statement, or, through the view cache, every statement.
func cacheableDerived(sel *SelectStmt) bool {
	return sel.Star && len(sel.From) == 1 && sel.From[0].Table != "" &&
		sel.Where == nil && len(sel.GroupBy) == 0 && sel.Having == nil &&
		len(sel.OrderBy) == 0 && sel.Limit < 0 && !sel.Distinct
}

// bestIndex returns the index of t covering the largest subset of the
// available equality columns, or nil; among equally large ones, the first
// by name.
func bestIndex(t *Table, available []int) *index {
	var best *index
	for _, ix := range t.byName {
		if best != nil && len(ix.columns) <= len(best.columns) {
			continue
		}
		covered := true
		for _, c := range ix.columns {
			if !slices.Contains(available, c) {
				covered = false
				break
			}
		}
		if covered {
			best = ix
		}
	}
	return best
}

// planFor returns the statement's plan for this database: the one cached
// on the statement when it was bound to the same catalog, a fresh one
// otherwise. The caller holds db.mu or the database is frozen.
func (db *DB) planFor(sel *SelectStmt) (*plan, *catalog, error) {
	dc := db.catalog()
	if p := sel.plan.Load(); p != nil && p.cat == dc.id {
		return p, dc, nil
	}
	p, err := bindSelect(dc, sel)
	if err != nil {
		return nil, nil, err
	}
	sel.plan.Store(p)
	return p, dc, nil
}

// Explain binds a SELECT against the database's catalog and describes
// the plan: one line per query block, giving how many of its WHERE
// conjuncts remain to be filtered after the probes, and under it one
// line per FROM source naming its access path — scan, index probe, or
// the hash probe of a derived table or cached view. The description is
// static: it reads no rows and reports no counts. A database opened with
// DisableIndexes or DisableViewCache shows the paths it will take.
func (db *DB) Explain(stmt Statement) (string, error) {
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return "", fmt.Errorf("sql: Explain requires a SELECT, got %T", stmt)
	}
	if !db.frozen.Load() {
		db.mu.RLock()
		defer db.mu.RUnlock()
	}
	p, dc, err := db.planFor(sel)
	if err != nil {
		return "", err
	}
	x := explainer{db: db, dc: dc, p: p}
	x.block(0, "SELECT", 0)
	return x.sb.String(), nil
}

type explainer struct {
	db *DB
	dc *catalog
	p  *plan
	sb strings.Builder
}

func (x *explainer) block(bi int32, label string, depth int) {
	b := &x.p.blocks[bi]
	indent := strings.Repeat("  ", depth)
	indexes := !x.db.opts.DisableIndexes
	where := x.p.whereOf(b)
	residual := 0
	for _, c := range where {
		if c.cover < 0 || !indexes {
			residual++
		}
	}
	fmt.Fprintf(&x.sb, "%s%s: %d of %d conjuncts residual\n", indent, label, residual, len(where))
	for _, src := range x.p.sourcesOf(b) {
		probe := src.key >= 0 && indexes
		fmt.Fprintf(&x.sb, "%s  %s: ", indent, src.name)
		switch {
		case src.sub < 0 && probe:
			t := x.dc.byID[src.table]
			ix := t.byName[src.index]
			fmt.Fprintf(&x.sb, "index %s %s on %s\n", ix.name, columnList(ix.columns, src.cols), t.schema.Name)
		case src.sub < 0:
			fmt.Fprintf(&x.sb, "scan %s\n", x.dc.byID[src.table].schema.Name)
		default:
			what := "derived"
			if src.view >= 0 && !x.db.opts.DisableViewCache {
				what = "view " + x.dc.byID[src.view].schema.Name
			}
			if probe {
				fmt.Fprintf(&x.sb, "%s hash %s\n", what, columnList(src.hash.cols, src.cols))
			} else {
				fmt.Fprintf(&x.sb, "%s scan\n", what)
			}
			if what == "derived" {
				x.block(src.sub, "SELECT", depth+2)
			}
		}
	}
	for _, c := range where {
		x.subqueries(c.e, depth+1)
	}
	for _, e := range x.p.list(b.items) {
		x.subqueries(e, depth+1)
	}
	for _, e := range x.p.list(b.groupBy) {
		x.subqueries(e, depth+1)
	}
	x.subqueries(b.having, depth+1)
	for i, e := range x.p.list(b.orderBy) {
		if i%2 == 0 {
			x.subqueries(e, depth+1)
		}
	}
}

// subqueries explains the subquery blocks under node e, in order.
func (x *explainer) subqueries(e int32, depth int) {
	if e < 0 {
		return
	}
	n := x.p.nodes[e]
	switch n.op {
	case opLit, opParam, opCol:
	case opNot, opNeg, opIsNull:
		x.subqueries(n.a, depth)
	case opIn, opFunc, opAgg, opCase:
		if n.op == opIn {
			x.subqueries(n.a, depth)
		}
		for _, a := range x.p.list(n.b) {
			x.subqueries(a, depth)
		}
	case opInSub, opExists, opScalar:
		label := "EXISTS"
		switch n.op {
		case opInSub:
			label = "IN"
			x.subqueries(n.a, depth)
		case opScalar:
			label = "SCALAR"
		}
		if n.neg {
			label = "NOT " + label
		}
		x.block(n.b, label, depth)
	default:
		x.subqueries(n.a, depth)
		x.subqueries(n.b, depth)
	}
}

func columnList(ords []int, cols []string) string {
	names := make([]string, len(ords))
	for i, o := range ords {
		names[i] = cols[o]
	}
	return "(" + strings.Join(names, ", ") + ")"
}
