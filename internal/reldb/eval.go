package reldb

import (
	"fmt"
	"strings"
)

// eval evaluates a bound expression against the statement's frame under
// SQL three-valued logic: NULL propagates through operators, and boolean
// operators follow Kleene logic. It is the engine's one evaluator: every
// statement kind binds its expressions (plan.go) and evaluates them here.
func (st *execState) eval(id int32) (Value, error) {
	p := st.plan
	x := &p.nodes[id]
	switch x.op {
	case opLit:
		return *p.lits[x.a], nil

	case opParam:
		return st.params[x.a], nil

	case opCol:
		return st.frame[x.a][x.b], nil

	case opNot:
		v, err := st.eval(x.a)
		if err != nil || v.IsNull() {
			return Null, err
		}
		b, _ := v.AsBool()
		return Bool(!b), nil

	case opNeg:
		v, err := st.eval(x.a)
		if err != nil || v.IsNull() {
			return Null, err
		}
		if v.Kind() == KindFloat {
			f, _ := v.AsFloat()
			return Float(-f), nil
		}
		n, ok := v.AsInt()
		if !ok {
			return Null, fmt.Errorf("sql: cannot negate %s", v.Kind())
		}
		return Int(-n), nil

	case opAnd:
		l, err := st.eval(x.a)
		if err != nil {
			return Null, err
		}
		if lb, known := l.AsBool(); known && !lb {
			return Bool(false), nil // short circuit
		}
		r, err := st.eval(x.b)
		if err != nil {
			return Null, err
		}
		if rb, known := r.AsBool(); known && !rb {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(true), nil

	case opOr:
		l, err := st.eval(x.a)
		if err != nil {
			return Null, err
		}
		if lb, known := l.AsBool(); known && lb {
			return Bool(true), nil // short circuit
		}
		r, err := st.eval(x.b)
		if err != nil {
			return Null, err
		}
		if rb, known := r.AsBool(); known && rb {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(false), nil

	case opIsNull:
		v, err := st.eval(x.a)
		if err != nil {
			return Null, err
		}
		return Bool(v.IsNull() != x.neg), nil

	case opIn, opInSub:
		return st.evalIn(x)

	case opExists:
		r := blockRun{need: 1}
		if err := st.run(&p.blocks[x.b], &r); err != nil {
			return Null, err
		}
		return Bool((r.n > 0) != x.neg), nil

	case opScalar:
		r := blockRun{need: 2, keep: true}
		if err := st.run(&p.blocks[x.b], &r); err != nil {
			return Null, err
		}
		switch {
		case len(r.out) == 0:
			return Null, nil
		case len(r.out) > 1:
			return Null, fmt.Errorf("sql: scalar subquery returned %d rows", len(r.out))
		case len(r.out[0]) != 1:
			return Null, fmt.Errorf("sql: scalar subquery returned %d columns", len(r.out[0]))
		}
		return r.out[0][0], nil

	case opFunc:
		return st.evalScalarFunc(x)

	case opAgg:
		return st.evalAggregate(x)

	case opCase:
		branches := p.list(x.b)
		for i := 0; i+1 < len(branches); i += 2 {
			cond, err := st.eval(branches[i])
			if err != nil {
				return Null, err
			}
			if b, known := cond.AsBool(); known && b {
				return st.eval(branches[i+1])
			}
		}
		if len(branches)%2 == 1 {
			return st.eval(branches[len(branches)-1])
		}
		return Null, nil
	}

	// The remaining operators are strict in both operands.
	l, err := st.eval(x.a)
	if err != nil {
		return Null, err
	}
	r, err := st.eval(x.b)
	if err != nil {
		return Null, err
	}
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	switch x.op {
	case opEq:
		return Bool(Compare(l, r) == 0), nil
	case opNe:
		return Bool(Compare(l, r) != 0), nil
	case opLt:
		return Bool(Compare(l, r) < 0), nil
	case opLe:
		return Bool(Compare(l, r) <= 0), nil
	case opGt:
		return Bool(Compare(l, r) > 0), nil
	case opGe:
		return Bool(Compare(l, r) >= 0), nil
	case opLike:
		return Bool(likeMatch(l.AsString(), r.AsString())), nil
	case opConcat:
		return Str(l.AsString() + r.AsString()), nil
	}
	return arith(x.op, l, r)
}

// arithNames spells opAdd..opDiv for error messages.
var arithNames = [...]string{"+", "-", "*", "/"}

func arith(op opcode, l, r Value) (Value, error) {
	if l.Kind() == KindFloat || r.Kind() == KindFloat {
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Null, fmt.Errorf("sql: non-numeric operand for %s", arithNames[op-opAdd])
		}
		switch op {
		case opAdd:
			return Float(lf + rf), nil
		case opSub:
			return Float(lf - rf), nil
		case opMul:
			return Float(lf * rf), nil
		case opDiv:
			if rf == 0 {
				return Null, fmt.Errorf("sql: division by zero")
			}
			return Float(lf / rf), nil
		}
	}
	li, lok := l.AsInt()
	ri, rok := r.AsInt()
	if !lok || !rok {
		return Null, fmt.Errorf("sql: non-numeric operand for %s", arithNames[op-opAdd])
	}
	switch op {
	case opAdd:
		return Int(li + ri), nil
	case opSub:
		return Int(li - ri), nil
	case opMul:
		return Int(li * ri), nil
	case opDiv:
		if ri == 0 {
			return Null, fmt.Errorf("sql: division by zero")
		}
		return Int(li / ri), nil
	}
	return Null, fmt.Errorf("sql: unknown arithmetic operator %d", op)
}

func (st *execState) evalIn(x *node) (Value, error) {
	v, err := st.eval(x.a)
	if err != nil || v.IsNull() {
		return Null, err
	}
	sawNull := false
	if x.op == opInSub {
		r := blockRun{keep: true}
		if err := st.run(&st.plan.blocks[x.b], &r); err != nil {
			return Null, err
		}
		for _, row := range r.out {
			if len(row) != 1 {
				return Null, fmt.Errorf("sql: IN subquery must return one column")
			}
			if row[0].IsNull() {
				sawNull = true
			} else if Compare(v, row[0]) == 0 {
				return Bool(!x.neg), nil
			}
		}
	} else {
		for _, item := range st.plan.list(x.b) {
			iv, err := st.eval(item)
			if err != nil {
				return Null, err
			}
			if iv.IsNull() {
				sawNull = true
			} else if Compare(v, iv) == 0 {
				return Bool(!x.neg), nil
			}
		}
	}
	if sawNull {
		return Null, nil
	}
	return Bool(x.neg), nil
}

func (st *execState) evalScalarFunc(x *node) (Value, error) {
	name := st.plan.calls[x.a].Name
	var buf [3]Value // no scalar function but COALESCE takes more
	args := buf[:0]
	for _, a := range st.plan.list(x.b) {
		v, err := st.eval(a)
		if err != nil {
			return Null, err
		}
		args = append(args, v)
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "UPPER":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Str(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Str(strings.ToLower(args[0].AsString())), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Int(int64(len(args[0].AsString()))), nil
	case "ABS":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if args[0].Kind() == KindFloat {
			f, _ := args[0].AsFloat()
			if f < 0 {
				f = -f
			}
			return Float(f), nil
		}
		n, ok := args[0].AsInt()
		if !ok {
			return Null, fmt.Errorf("sql: ABS of non-numeric value")
		}
		if n < 0 {
			n = -n
		}
		return Int(n), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null, fmt.Errorf("sql: %s expects 2 or 3 arguments", name)
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s := args[0].AsString()
		start, _ := args[1].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return Str(""), nil
		}
		rest := s[start-1:]
		if len(args) == 3 {
			n, _ := args[2].AsInt()
			if n < 0 {
				n = 0
			}
			if int(n) < len(rest) {
				rest = rest[:n]
			}
		}
		return Str(rest), nil
	}
	return Null, fmt.Errorf("sql: unknown function %s", name)
}

// evalAggregate computes an aggregate function over the rows of the
// current group: each member's snapshot is put back in the frame and the
// argument evaluated against it. Outside the grouped phase of a block
// there is no group, and within an aggregate's argument there is none
// either.
func (st *execState) evalAggregate(x *node) (Value, error) {
	call, args := st.plan.calls[x.a], st.plan.list(x.b)
	g := st.agg
	if g == nil {
		return Null, fmt.Errorf("sql: aggregate %s used outside grouped query", call.Name)
	}
	if !call.Star && len(args) != 1 && len(g.snaps) > 0 {
		return Null, fmt.Errorf("sql: %s expects one argument", call.Name)
	}
	var representative [][]Value
	if len(g.snaps) > 0 {
		representative = g.snaps[0]
	}
	st.agg = nil
	defer func() {
		copy(st.frame[g.base:], representative)
		st.agg = g
	}()

	var count int64
	var sum float64
	allInt := true
	var minV, maxV Value
	haveVal := false
	var distinctSeen map[string]bool
	if call.Distinct {
		distinctSeen = map[string]bool{}
	}

	for _, snap := range g.snaps {
		if call.Star {
			count++
			continue
		}
		copy(st.frame[g.base:], snap)
		v, err := st.eval(args[0])
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if call.Distinct {
			k := encodeKey([]Value{v})
			if distinctSeen[k] {
				continue
			}
			distinctSeen[k] = true
		}
		count++
		if f, ok := v.AsFloat(); ok {
			sum += f
			if v.Kind() != KindInt {
				allInt = false
			}
		} else if call.Name == "SUM" || call.Name == "AVG" {
			return Null, fmt.Errorf("sql: %s of non-numeric value", call.Name)
		}
		if !haveVal {
			minV, maxV = v, v
			haveVal = true
		} else {
			if Compare(v, minV) < 0 {
				minV = v
			}
			if Compare(v, maxV) > 0 {
				maxV = v
			}
		}
	}

	switch call.Name {
	case "COUNT":
		return Int(count), nil
	case "SUM":
		if count == 0 {
			return Null, nil
		}
		if allInt {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "AVG":
		if count == 0 {
			return Null, nil
		}
		return Float(sum / float64(count)), nil
	case "MIN":
		if !haveVal {
			return Null, nil
		}
		return minV, nil
	case "MAX":
		if !haveVal {
			return Null, nil
		}
		return maxV, nil
	}
	return Null, fmt.Errorf("sql: unknown aggregate %s", call.Name)
}

// likeMatch implements SQL LIKE with '%' (any run), '_' (any one byte),
// and '\' escaping the next pattern byte (the common LIKE ... ESCAPE '\'
// extension, always enabled). Escaping lets URI patterns containing
// literal '_' or '%' be stored safely by the reference-file subsystem.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on '%'.
	si, pi := 0, 0
	star, match := -1, 0
	literalAt := func(pi int) (byte, int, bool) {
		// Returns the literal byte at pattern position pi (resolving a
		// backslash escape), the width consumed, and whether the byte
		// is literal (as opposed to a % or _ metacharacter).
		c := pattern[pi]
		switch c {
		case '\\':
			if pi+1 < len(pattern) {
				return pattern[pi+1], 2, true
			}
			return '\\', 1, true
		case '%', '_':
			return c, 1, false
		default:
			return c, 1, true
		}
	}
	for si < len(s) {
		if pi < len(pattern) {
			c, w, lit := literalAt(pi)
			switch {
			case !lit && c == '_':
				si++
				pi += w
				continue
			case !lit && c == '%':
				star = pi
				match = si
				pi += w
				continue
			case lit && c == s[si]:
				si++
				pi += w
				continue
			}
		}
		if star >= 0 {
			// Backtrack: let the last '%' absorb one more byte.
			pi = star + 1
			match++
			si = match
			continue
		}
		return false
	}
	for pi < len(pattern) {
		c, w, lit := literalAt(pi)
		if lit || c != '%' {
			return false
		}
		pi += w
	}
	return true
}

// EscapeLike escapes LIKE metacharacters in a literal string so it matches
// itself exactly within a pattern.
func EscapeLike(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%', '_', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// truthy interprets an evaluated predicate for WHERE/HAVING: NULL is false.
func truthy(v Value) bool {
	b, known := v.AsBool()
	return known && b
}
