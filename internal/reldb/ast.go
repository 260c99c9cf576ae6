package reldb

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file defines the abstract syntax tree for the SQL subset. Nodes are
// plain structs. The executor does not interpret them: a statement is bound
// once into a plan (plan.go) — names resolved, access paths chosen — and
// the plan is what runs (exec.go). A tree is either parsed from text
// (parser.go) or built node by node (package sqlgen does, for the
// preference queries the site serves); the end of this file holds what the
// two routes share: the statement-complexity limits and the printer that
// renders a tree back to text.

// Statement is any parsed SQL statement.
type Statement interface{ isStatement() }

// Expr is any scalar or boolean expression.
type Expr interface{ isExpr() }

// --- Statements ---

// SelectStmt is a SELECT query (possibly nested as a subquery).
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem // empty means SELECT *
	Star     bool
	From     []FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 means no limit

	// plan caches the statement's bound form (plan.go) for the catalog
	// it last ran against. Only a statement handed to the engine's
	// entry points carries one; subqueries are bound inside it.
	plan atomic.Pointer[plan]
}

func (*SelectStmt) isStatement() {}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// FromItem is a table reference or a derived table, with an optional alias.
type FromItem struct {
	Table    string      // table name, when not a derived table
	Subquery *SelectStmt // derived table, when Table == ""
	Alias    string
}

// Name returns the binding name of the FROM item (alias or table name).
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Table
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*InsertStmt) isStatement() {}

// UpdateStmt is UPDATE t SET c = e, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

func (*UpdateStmt) isStatement() {}

// SetClause is a single column assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) isStatement() {}

// CreateTableStmt is CREATE TABLE t (cols..., PRIMARY KEY (...)).
type CreateTableStmt struct {
	Table      string
	Columns    []Column
	PrimaryKey []string
}

func (*CreateTableStmt) isStatement() {}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON t (cols).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

func (*CreateIndexStmt) isStatement() {}

// DropTableStmt is DROP TABLE t.
type DropTableStmt struct {
	Table string
}

func (*DropTableStmt) isStatement() {}

// --- Expressions ---

// Literal is a constant value.
type Literal struct{ Value Value }

func (*Literal) isExpr() {}

// ColumnRef references a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table  string // may be empty
	Column string
}

func (*ColumnRef) isExpr() {}

// Param is a positional parameter '?', bound at execution time.
type Param struct{ Index int }

func (*Param) isExpr() {}

// BinaryExpr applies a binary operator. Op is one of:
// "OR" "AND" "=" "<>" "<" "<=" ">" ">=" "+" "-" "*" "/" "||" "LIKE".
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*BinaryExpr) isExpr() {}

// UnaryExpr applies "NOT" or "-" to an operand.
type UnaryExpr struct {
	Op      string
	Operand Expr
}

func (*UnaryExpr) isExpr() {}

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	Operand Expr
	Negated bool
}

func (*IsNullExpr) isExpr() {}

// InExpr is "expr [NOT] IN (list)" or "expr [NOT] IN (subquery)".
type InExpr struct {
	Operand  Expr
	List     []Expr
	Subquery *SelectStmt
	Negated  bool
}

func (*InExpr) isExpr() {}

// ExistsExpr is "[NOT] EXISTS (subquery)".
type ExistsExpr struct {
	Subquery *SelectStmt
	Negated  bool
}

func (*ExistsExpr) isExpr() {}

// SubqueryExpr is a scalar subquery "(SELECT ...)" used as a value.
type SubqueryExpr struct{ Subquery *SelectStmt }

func (*SubqueryExpr) isExpr() {}

// FuncExpr is a function call. Star marks COUNT(*); Distinct marks
// aggregates over distinct argument values, e.g. COUNT(DISTINCT ref).
type FuncExpr struct {
	Name     string // uppercased
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*FuncExpr) isExpr() {}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

func (*CaseExpr) isExpr() {}

// CaseWhen is one WHEN/THEN branch of a CASE expression.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// aggregateFuncs are functions computed over groups rather than rows.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// hasAggregate reports whether the expression tree contains an aggregate
// function call (not descending into subqueries, which aggregate over their
// own groups).
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return hasAggregate(x.Left) || hasAggregate(x.Right)
	case *UnaryExpr:
		return hasAggregate(x.Operand)
	case *IsNullExpr:
		return hasAggregate(x.Operand)
	case *InExpr:
		if hasAggregate(x.Operand) {
			return true
		}
		for _, l := range x.List {
			if hasAggregate(l) {
				return true
			}
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			if hasAggregate(w.Cond) || hasAggregate(w.Then) {
				return true
			}
		}
		return hasAggregate(x.Else)
	}
	return false
}

// --- Statement-complexity limits ---

// ErrTooComplex is wrapped by the error that rejects a statement beyond
// the engine's statement-complexity limits, whether the statement arrived
// as text (Parse, Prepare) or as a built tree (Options.CheckComplexity).
var ErrTooComplex = fmt.Errorf("statement too complex")

// defaultMaxSubqueryDepth and defaultMaxSubqueries are the engine's
// statement-complexity limits: the maximum nesting depth of subqueries and
// the maximum number of query blocks in one statement.
const (
	defaultMaxSubqueryDepth = 24
	defaultMaxSubqueries    = 64
)

// complexity is the accounting behind the limits: the parser keeps one
// while it reads text, CheckComplexity walks one over a built tree, and
// both enter every query block through enter, so the two routes reject
// the same statements with the same errors. The limits emulate the
// statement-complexity limits of the era's database engines (the paper's
// XTABLE-generated SQL for the Medium preference hit one on DB2).
type complexity struct {
	depth      int // current subquery nesting depth
	selects    int // query blocks seen so far in the statement
	maxDepth   int
	maxSelects int
}

// limits resolves the options' complexity limits against the defaults.
func (o Options) limits() complexity {
	c := complexity{maxDepth: o.MaxSubqueryDepth, maxSelects: o.MaxSubqueries}
	if c.maxDepth == 0 {
		c.maxDepth = defaultMaxSubqueryDepth
	}
	if c.maxSelects == 0 {
		c.maxSelects = defaultMaxSubqueries
	}
	return c
}

// enter accounts for one query block at the current nesting depth.
func (c *complexity) enter() error {
	if c.depth > c.maxDepth {
		return fmt.Errorf("sql: %w: subquery nesting exceeds %d levels", ErrTooComplex, c.maxDepth)
	}
	c.selects++
	if c.selects > c.maxSelects {
		return fmt.Errorf("sql: %w: statement has more than %d query blocks", ErrTooComplex, c.maxSelects)
	}
	return nil
}

// CheckComplexity enforces the statement-complexity limits of a database
// opened with these options on a SELECT built as a tree rather than
// parsed: what Prepare does for text. The walk visits query blocks in the
// order the parser meets them, so a statement is accepted or rejected —
// and with the same error — whichever way it reached the engine.
func (o Options) CheckComplexity(sel *SelectStmt) error {
	c := o.limits()
	return c.selectStmt(sel)
}

func (c *complexity) selectStmt(s *SelectStmt) error {
	if err := c.enter(); err != nil {
		return err
	}
	for _, it := range s.Items {
		if err := c.expr(it.Expr); err != nil {
			return err
		}
	}
	for _, fi := range s.From {
		if fi.Subquery != nil {
			if err := c.subquery(fi.Subquery); err != nil {
				return err
			}
		}
	}
	if err := c.exprs(s.Where); err != nil {
		return err
	}
	if err := c.exprs(s.GroupBy...); err != nil {
		return err
	}
	if err := c.exprs(s.Having); err != nil {
		return err
	}
	for _, oi := range s.OrderBy {
		if err := c.expr(oi.Expr); err != nil {
			return err
		}
	}
	return nil
}

func (c *complexity) subquery(s *SelectStmt) error {
	c.depth++
	err := c.selectStmt(s)
	c.depth--
	return err
}

func (c *complexity) exprs(es ...Expr) error {
	for _, e := range es {
		if err := c.expr(e); err != nil {
			return err
		}
	}
	return nil
}

func (c *complexity) expr(e Expr) error {
	switch x := e.(type) {
	case *BinaryExpr:
		return c.exprs(x.Left, x.Right)
	case *UnaryExpr:
		return c.expr(x.Operand)
	case *IsNullExpr:
		return c.expr(x.Operand)
	case *InExpr:
		if err := c.expr(x.Operand); err != nil {
			return err
		}
		if x.Subquery != nil {
			return c.subquery(x.Subquery)
		}
		return c.exprs(x.List...)
	case *ExistsExpr:
		return c.subquery(x.Subquery)
	case *SubqueryExpr:
		return c.subquery(x.Subquery)
	case *FuncExpr:
		return c.exprs(x.Args...)
	case *CaseExpr:
		for _, w := range x.Whens {
			if err := c.exprs(w.Cond, w.Then); err != nil {
				return err
			}
		}
		return c.expr(x.Else)
	}
	return nil // nil, literals, column references, parameters
}

// --- Printer ---

// SQL renders the statement as SQL text. Text is a rendering of the tree,
// not its source: statements the engine serves are built as trees, and
// this is the one place their text comes from (display, the paper's
// Figure 15 shape, the text entry points of benchmarks and tests).
//
// Parse reads the text back into a structurally equal tree whenever the
// tree is in the parser's own form: AND, OR and arithmetic chains nest to
// the left, NOT EXISTS is a UnaryExpr over an ExistsExpr, numeric literals
// are non-negative, function names are upper case and parameters are
// numbered in source order. Trees outside that form still print as
// equivalent SQL.
func (s *SelectStmt) SQL() string {
	var p printer
	p.selectStmt(s)
	return p.b.String()
}

// Operator precedence levels of the expression grammar (parser.go),
// loosest first. An operand prints inside parentheses when it binds
// looser than its position requires.
const (
	precOr = iota + 1
	precAnd
	precNot
	precPredicate // comparisons, LIKE, IN, IS NULL: do not chain
	precAdditive
	precMultiplicative
	precUnary
	precPrimary
)

func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "OR":
			return precOr
		case "AND":
			return precAnd
		case "+", "-", "||":
			return precAdditive
		case "*", "/":
			return precMultiplicative
		}
		return precPredicate
	case *UnaryExpr:
		if x.Op == "NOT" {
			return precNot
		}
		return precUnary
	case *IsNullExpr, *InExpr:
		return precPredicate
	case *ExistsExpr:
		if x.Negated {
			return precNot
		}
	}
	return precPrimary
}

type printer struct{ b strings.Builder }

func (p *printer) selectStmt(s *SelectStmt) {
	p.b.WriteString("SELECT ")
	if s.Distinct {
		p.b.WriteString("DISTINCT ")
	}
	if s.Star {
		p.b.WriteByte('*')
	}
	for i, it := range s.Items {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.expr(it.Expr, 0)
		if it.Alias != "" {
			p.b.WriteString(" AS ")
			p.ident(it.Alias)
		}
	}
	for i, fi := range s.From {
		if i == 0 {
			p.b.WriteString(" FROM ")
		} else {
			p.b.WriteString(", ")
		}
		if fi.Subquery != nil {
			p.b.WriteByte('(')
			p.selectStmt(fi.Subquery)
			p.b.WriteString(") AS ")
			p.ident(fi.Alias)
			continue
		}
		p.ident(fi.Table)
		if fi.Alias != "" {
			p.b.WriteByte(' ')
			p.ident(fi.Alias)
		}
	}
	if s.Where != nil {
		p.b.WriteString(" WHERE ")
		p.expr(s.Where, 0)
	}
	p.list(" GROUP BY ", s.GroupBy)
	if s.Having != nil {
		p.b.WriteString(" HAVING ")
		p.expr(s.Having, 0)
	}
	for i, oi := range s.OrderBy {
		if i == 0 {
			p.b.WriteString(" ORDER BY ")
		} else {
			p.b.WriteString(", ")
		}
		p.expr(oi.Expr, 0)
		if oi.Desc {
			p.b.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		p.b.WriteString(" LIMIT ")
		p.b.WriteString(strconv.Itoa(s.Limit))
	}
}

// list prints a comma-separated expression list after lead, or nothing
// when the list is empty.
func (p *printer) list(lead string, es []Expr) {
	for i, e := range es {
		if i == 0 {
			p.b.WriteString(lead)
		} else {
			p.b.WriteString(", ")
		}
		p.expr(e, 0)
	}
}

// ident prints a name, quoted when the lexer would not read it back bare
// as the same identifier.
func (p *printer) ident(name string) {
	bare := name != "" && isIdentStart(rune(name[0])) && !isKeyword(name)
	for i := 1; bare && i < len(name); i++ {
		bare = isIdentPart(rune(name[i]))
	}
	if bare {
		p.b.WriteString(name)
		return
	}
	p.b.WriteByte('"')
	p.b.WriteString(name)
	p.b.WriteByte('"')
}

// isKeyword reports whether the lexer reads name as a reserved word: the
// keywords are ASCII letters, matched whatever their case.
func isKeyword(name string) bool {
	var upper [8]byte // no keyword is longer
	if len(name) > len(upper) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		upper[i] = c
	}
	return sqlKeywords[string(upper[:len(name)])]
}

// expr prints e where the grammar requires precedence min or tighter.
func (p *printer) expr(e Expr, min int) {
	prec := exprPrec(e)
	if prec < min {
		p.b.WriteByte('(')
		p.expr(e, 0)
		p.b.WriteByte(')')
		return
	}
	switch x := e.(type) {
	case *Literal:
		p.literal(x.Value)
	case *ColumnRef:
		if x.Table != "" {
			p.ident(x.Table)
			p.b.WriteByte('.')
		}
		p.ident(x.Column)
	case *Param:
		p.b.WriteByte('?')
	case *BinaryExpr:
		// Chains nest to the left, so a left operand of the same level
		// prints bare and a right one is parenthesized; the predicate
		// operators do not chain at all.
		left, right := prec, prec+1
		switch prec {
		case precPredicate:
			left, right = precAdditive, precAdditive
		case precOr:
			// A conjunction under a disjunction is parenthesized although
			// the grammar does not need it, the way the paper's figures
			// write mixed conditions.
			if exprPrec(x.Left) == precAnd {
				left = precNot
			}
			if exprPrec(x.Right) == precAnd {
				right = precNot
			}
		}
		p.expr(x.Left, left)
		p.b.WriteByte(' ')
		p.b.WriteString(x.Op)
		p.b.WriteByte(' ')
		p.expr(x.Right, right)
	case *UnaryExpr:
		if x.Op == "NOT" {
			p.b.WriteString("NOT ")
			p.expr(x.Operand, precNot)
		} else {
			p.b.WriteString(x.Op)
			p.expr(x.Operand, precPrimary)
		}
	case *IsNullExpr:
		p.expr(x.Operand, precAdditive)
		if x.Negated {
			p.b.WriteString(" IS NOT NULL")
		} else {
			p.b.WriteString(" IS NULL")
		}
	case *InExpr:
		p.expr(x.Operand, precAdditive)
		if x.Negated {
			p.b.WriteString(" NOT")
		}
		p.b.WriteString(" IN (")
		if x.Subquery != nil {
			p.selectStmt(x.Subquery)
		} else {
			p.list("", x.List)
		}
		p.b.WriteByte(')')
	case *ExistsExpr:
		if x.Negated {
			p.b.WriteString("NOT ")
		}
		p.b.WriteString("EXISTS (")
		p.selectStmt(x.Subquery)
		p.b.WriteByte(')')
	case *SubqueryExpr:
		p.b.WriteByte('(')
		p.selectStmt(x.Subquery)
		p.b.WriteByte(')')
	case *FuncExpr:
		p.ident(x.Name)
		p.b.WriteByte('(')
		if x.Star {
			p.b.WriteByte('*')
		}
		if x.Distinct {
			p.b.WriteString("DISTINCT ")
		}
		p.list("", x.Args)
		p.b.WriteByte(')')
	case *CaseExpr:
		p.b.WriteString("CASE")
		for _, w := range x.Whens {
			p.b.WriteString(" WHEN ")
			p.expr(w.Cond, 0)
			p.b.WriteString(" THEN ")
			p.expr(w.Then, 0)
		}
		if x.Else != nil {
			p.b.WriteString(" ELSE ")
			p.expr(x.Else, 0)
		}
		p.b.WriteString(" END")
	}
}

func (p *printer) literal(v Value) {
	if v.kind != KindFloat {
		p.b.WriteString(v.String())
		return
	}
	// A number reads back as DOUBLE only if its text says so.
	s := v.AsString()
	p.b.WriteString(s)
	if !strings.ContainsAny(s, ".eE") {
		p.b.WriteString(".0")
	}
}
