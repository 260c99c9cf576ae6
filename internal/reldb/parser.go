package reldb

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	pos    int
	src    string
	params int // number of '?' parameters seen
	// complexity bounds subquery nesting and the number of query blocks
	// (ast.go); statements beyond either limit are rejected as "too
	// complex" while they are read, before the recursion goes deeper.
	complexity
}

// Parse parses a single SQL statement under the default complexity limits.
func Parse(src string) (Statement, error) {
	return parseWithLimit(src, Options{}.limits())
}

// ParseAll parses a fixed script one statement per element, for DDL that
// many databases run: parse it once, then ExecStmt the trees into each.
func ParseAll(srcs []string) ([]Statement, error) {
	out := make([]Statement, len(srcs))
	for i, src := range srcs {
		stmt, err := Parse(src)
		if err != nil {
			return nil, err
		}
		out[i] = stmt
	}
	return out, nil
}

func parseWithLimit(src string, limits complexity) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src, complexity: limits}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.pos++
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %q after end of statement", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return token{kind: tokEOF}
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	line, col := 1, 1
	for i := 0; i < t.pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql: %s at line %d column %d", fmt.Sprintf(format, args...), line, col)
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.advance()
		return nil
	}
	return p.errorf("expected %s, found %q", kw, t.text)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

// expectSymbol consumes the given symbol or fails.
func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.advance()
		return nil
	}
	return p.errorf("expected %q, found %q", sym, t.text)
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.advance()
		return true
	}
	return false
}

// parseIdent consumes an identifier (or unreserved keyword used as a name).
func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		if p.peek2().kind == tokKeyword && p.peek2().text == "TABLE" {
			return p.parseCreateTable()
		}
		return p.parseCreateIndex()
	case "DROP":
		return p.parseDropTable()
	}
	return nil, p.errorf("unsupported statement %q", t.text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	if p.acceptSymbol("*") {
		s.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				a, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.peek().kind == tokIdent {
				item.Alias = p.advance().text
			}
			s.Items = append(s.Items, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			fi, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, fi)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				oi.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	// DB2-style FETCH FIRST n ROWS ONLY.
	if p.acceptKeyword("FETCH") {
		if err := p.expectKeyword("FIRST"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after FETCH FIRST")
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errorf("bad FETCH FIRST %q", t.text)
		}
		if err := p.expectKeyword("ROWS"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ONLY"); err != nil {
			return nil, err
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	if p.acceptSymbol("(") {
		p.depth++
		sub, err := p.parseSelect()
		p.depth--
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return FromItem{}, err
		}
		fi := FromItem{Subquery: sub}
		p.acceptKeyword("AS")
		a, err := p.parseIdent()
		if err != nil {
			return FromItem{}, p.errorf("derived table requires an alias")
		}
		fi.Alias = a
		return fi, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: name}
	if p.acceptKeyword("AS") {
		a, err := p.parseIdent()
		if err != nil {
			return FromItem{}, err
		}
		fi.Alias = a
	} else if p.peek().kind == tokIdent {
		fi.Alias = p.advance().text
	}
	return fi, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			c, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col, Value: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Table: table}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		if p.peek().kind == tokKeyword && p.peek().text == "PRIMARY" {
			p.advance()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				st.PrimaryKey = append(st.PrimaryKey, c)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseColumnDef() (Column, error) {
	name, err := p.parseIdent()
	if err != nil {
		return Column{}, err
	}
	t := p.peek()
	if t.kind != tokKeyword {
		return Column{}, p.errorf("expected column type, found %q", t.text)
	}
	var kind Kind
	switch t.text {
	case "INTEGER", "INT", "BIGINT":
		kind = KindInt
	case "DOUBLE", "FLOAT", "REAL":
		kind = KindFloat
	case "VARCHAR", "TEXT", "CHAR":
		kind = KindString
	case "BOOLEAN":
		kind = KindBool
	default:
		return Column{}, p.errorf("unsupported column type %q", t.text)
	}
	p.advance()
	// Optional length, ignored: VARCHAR(255).
	if p.acceptSymbol("(") {
		if p.peek().kind != tokNumber {
			return Column{}, p.errorf("expected length in type")
		}
		p.advance()
		if err := p.expectSymbol(")"); err != nil {
			return Column{}, err
		}
	}
	col := Column{Name: name, Type: kind, Nullable: true}
	if p.acceptKeyword("NOT") {
		if err := p.expectKeyword("NULL"); err != nil {
			return Column{}, err
		}
		col.Nullable = false
	} else {
		p.acceptKeyword("NULL")
	}
	return col, nil
}

func (p *parser) parseCreateIndex() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{}
	if p.acceptKeyword("UNIQUE") {
		st.Unique = true
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		c, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, c)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseDropTable() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: table}, nil
}

// --- Expression grammar (precedence climbing) ---
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := additive
//	             [ (=|<>|<|<=|>|>=) additive
//	             | [NOT] IN ( list | select )
//	             | [NOT] LIKE additive
//	             | IS [NOT] NULL
//	             | [NOT] BETWEEN additive AND additive ]
//	additive := multiplicative ((+|-|'||') multiplicative)*
//	multiplicative := unary ((*|/) unary)*
//	unary   := - unary | primary
//	primary := literal | ? | ident[.ident] | func(...) | ( expr | select ) | EXISTS ( select ) | CASE ...

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Operand: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Optional NOT before IN / LIKE / BETWEEN.
	negated := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		n := p.peek2()
		if n.kind == tokKeyword && (n.text == "IN" || n.text == "LIKE" || n.text == "BETWEEN") {
			p.advance()
			negated = true
		}
	}
	t := p.peek()
	switch {
	case t.kind == tokSymbol && (t.text == "=" || t.text == "<>" || t.text == "!=" ||
		t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">="):
		p.advance()
		op := t.text
		if op == "!=" {
			op = "<>"
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil

	case t.kind == tokKeyword && t.text == "IN":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &InExpr{Operand: left, Negated: negated}
		if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
			p.depth++
			sub, err := p.parseSelect()
			p.depth--
			if err != nil {
				return nil, err
			}
			in.Subquery = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil

	case t.kind == tokKeyword && t.text == "LIKE":
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{Op: "LIKE", Left: left, Right: right}
		if negated {
			e = &UnaryExpr{Op: "NOT", Operand: e}
		}
		return e, nil

	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.advance()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{
			Op:    "AND",
			Left:  &BinaryExpr{Op: ">=", Left: left, Right: lo},
			Right: &BinaryExpr{Op: "<=", Left: left, Right: hi},
		}
		if negated {
			e = &UnaryExpr{Op: "NOT", Operand: e}
		}
		return e, nil

	case t.kind == tokKeyword && t.text == "IS":
		p.advance()
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Operand: left, Negated: neg}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.advance()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.advance()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Operand: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Value: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Value: Int(n)}, nil

	case t.kind == tokString:
		p.advance()
		return &Literal{Value: Str(t.text)}, nil

	case t.kind == tokSymbol && t.text == "?":
		p.advance()
		e := &Param{Index: p.params}
		p.params++
		return e, nil

	case t.kind == tokKeyword && t.text == "NULL":
		p.advance()
		return &Literal{Value: Null}, nil

	case t.kind == tokKeyword && t.text == "TRUE":
		p.advance()
		return &Literal{Value: Bool(true)}, nil

	case t.kind == tokKeyword && t.text == "FALSE":
		p.advance()
		return &Literal{Value: Bool(false)}, nil

	case t.kind == tokKeyword && t.text == "EXISTS":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		p.depth++
		sub, err := p.parseSelect()
		p.depth--
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Subquery: sub}, nil

	case t.kind == tokKeyword && t.text == "CASE":
		return p.parseCase()

	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
			p.depth++
			sub, err := p.parseSelect()
			p.depth--
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Subquery: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tokIdent:
		name := p.advance().text
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			p.advance()
			fn := &FuncExpr{Name: strings.ToUpper(name)}
			if p.acceptSymbol("*") {
				fn.Star = true
			} else if !(p.peek().kind == tokSymbol && p.peek().text == ")") {
				fn.Distinct = p.acceptKeyword("DISTINCT")
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, a)
					if !p.acceptSymbol(",") {
						break
					}
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fn, nil
		}
		// Qualified column?
		if p.peek().kind == tokSymbol && p.peek().text == "." {
			p.advance()
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	}
	return nil, p.errorf("unexpected %q in expression", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
