package aidl

import (
	"fmt"
)

// Parse compiles an AIDL source string (with optional Flux decorations)
// into an Interface. Semantic checks run after parsing: drop lists must
// reference declared methods (or "this"), @if arguments must name
// parameters of every method in the drop list, and decorations must precede
// a method declaration. Once the checks pass, Parse compiles each
// method's Selective Record tables (Method.Drops, Method.ComparedParams).
//
// Every parse or semantic error names the interface and method being
// parsed (when known) in addition to the line:column position, so a bad
// decoration inside a 30-method service definition is attributable without
// counting lines.
func Parse(src string) (*Interface, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	itf, err := p.parseInterface()
	if err != nil {
		return nil, err
	}
	if err := check(itf); err != nil {
		return nil, err
	}
	compileTables(itf)
	return itf, nil
}

// MustParse is Parse for compile-time-constant service definitions; it
// panics on error, which is appropriate for framework init.
func MustParse(src string) *Interface {
	itf, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return itf
}

type parser struct {
	toks []token
	pos  int

	// Diagnostic context: the interface name once parsed, and a short
	// description of the construct being parsed ("method set",
	// "@record block before method 3"). Both feed errf so every error
	// carries interface and method context, not just line:col.
	itfName string
	where   string
	// elifNoIf defers the "@elif without preceding @if" error from the
	// decoration block (where the method name is not yet known) to just
	// after the decorated method's declaration is parsed.
	elifNoIf Pos
}

// errf builds a positioned, contextual parse error:
//
//	aidl: interface IAlarmManager, method set: 5:12: expected ';' ...
func (p *parser) errf(line, col int, format string, args ...any) error {
	ctx := ""
	if p.itfName != "" {
		ctx = "interface " + p.itfName
		if p.where != "" {
			ctx += ", " + p.where
		}
		ctx += ": "
	}
	return fmt.Errorf("aidl: %s%d:%d: %s", ctx, line, col, fmt.Sprintf(format, args...))
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, p.errf(t.line, t.col, "expected %v, found %v %q", k, t.kind, t.text)
	}
	return t, nil
}

func (p *parser) expectIdent(text string) (token, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return t, err
	}
	if text != "" && t.text != text {
		return t, p.errf(t.line, t.col, "expected %q, found %q", text, t.text)
	}
	return t, nil
}

func (p *parser) parseInterface() (*Interface, error) {
	if _, err := p.expectIdent("interface"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	p.itfName = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	itf := &Interface{Name: name.text}
	code := uint32(1) // FIRST_CALL_TRANSACTION
	for {
		if p.peek().kind == tokRBrace {
			p.next()
			break
		}
		if t := p.peek(); t.kind == tokEOF {
			return nil, p.errf(t.line, t.col, "unexpected EOF before '}'")
		}
		var spec *RecordSpec
		if p.peek().kind == tokAt {
			p.where = fmt.Sprintf("@record block before method %d", len(itf.Methods)+1)
			spec, err = p.parseDecoration()
			if err != nil {
				return nil, err
			}
		}
		p.where = fmt.Sprintf("method %d", len(itf.Methods)+1)
		m, err := p.parseMethod()
		if err != nil {
			return nil, err
		}
		// Errors deferred from the decoration block fire here, while
		// p.where still names the method parseMethod just read.
		if p.elifNoIf.IsValid() {
			return nil, p.errf(p.elifNoIf.Line, p.elifNoIf.Col, "@elif without preceding @if")
		}
		p.where = ""
		m.Record = spec
		m.Code = code
		code++
		if prev := itf.Method(m.Name); prev != nil {
			return nil, p.errf(m.Pos.Line, m.Pos.Col, "method %s declared twice", m.Name)
		}
		itf.Methods = append(itf.Methods, m)
	}
	if t := p.peek(); t.kind != tokEOF {
		p.where = ""
		return nil, p.errf(t.line, t.col, "trailing input after interface")
	}
	return itf, nil
}

// parseDecoration handles both forms from the paper:
//
//	@record
//	@record { @drop a, b; @if x, y; @elif z; @replayproxy pkg.Cls.meth; }
func (p *parser) parseDecoration() (*RecordSpec, error) {
	at, err := p.expect(tokAt)
	if err != nil {
		return nil, err
	}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if kw.text != "record" {
		return nil, p.errf(kw.line, kw.col, "decoration must start with @record, found @%s", kw.text)
	}
	spec := &RecordSpec{AtPos: Pos{Line: at.line, Col: at.col}}
	if p.peek().kind != tokLBrace {
		return spec, nil // bare @record
	}
	p.next()
	for p.peek().kind != tokRBrace {
		if _, err := p.expect(tokAt); err != nil {
			return nil, err
		}
		stmt, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		switch stmt.text {
		case "drop":
			names, poss, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			spec.DropMethods = append(spec.DropMethods, names...)
			spec.DropPos = append(spec.DropPos, poss...)
		case "if", "elif":
			if stmt.text == "elif" && len(spec.Signatures) == 0 && !p.elifNoIf.IsValid() {
				// Defer the error until the decorated method's name is
				// known, so the diagnostic can say which method the
				// malformed block sits on.
				p.elifNoIf = Pos{Line: stmt.line, Col: stmt.col}
			}
			args, poss, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			spec.Signatures = append(spec.Signatures, args)
			spec.SigPos = append(spec.SigPos, poss)
		case "replayproxy":
			path, pathPos, err := p.parseDottedPath()
			if err != nil {
				return nil, err
			}
			if spec.ReplayProxy != "" {
				return nil, p.errf(stmt.line, stmt.col, "duplicate @replayproxy")
			}
			spec.ReplayProxy = path
			spec.ProxyPos = pathPos
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(stmt.line, stmt.col, "unknown decoration @%s", stmt.text)
		}
	}
	p.next() // consume '}'
	return spec, nil
}

func (p *parser) parseIdentList() ([]string, []Pos, error) {
	var names []string
	var poss []Pos
	for {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, t.text)
		poss = append(poss, Pos{Line: t.line, Col: t.col})
		switch p.peek().kind {
		case tokComma:
			p.next()
		case tokSemi:
			p.next()
			return names, poss, nil
		default:
			t := p.peek()
			return nil, nil, p.errf(t.line, t.col, "expected ',' or ';' in list, found %v", t.kind)
		}
	}
}

func (p *parser) parseDottedPath() (string, Pos, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", Pos{}, err
	}
	pos := Pos{Line: t.line, Col: t.col}
	path := t.text
	for p.peek().kind == tokDot {
		p.next()
		t, err := p.expect(tokIdent)
		if err != nil {
			return "", Pos{}, err
		}
		path += "." + t.text
	}
	return path, pos, nil
}

// parseMethod parses `[oneway] retType name(params);`.
func (p *parser) parseMethod() (*Method, error) {
	ret, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	oneway := false
	if ret.text == "oneway" {
		oneway = true
		ret, err = p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	p.where = "method " + name.text
	// Checked only now so the diagnostic names the method.
	if oneway && typeOf(ret.text) != TypeVoid {
		return nil, p.errf(ret.line, ret.col, "oneway methods must return void")
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	m := &Method{
		Name:    name.text,
		Returns: typeOf(ret.text),
		OneWay:  oneway,
		Pos:     Pos{Line: name.line, Col: name.col},
	}
	for p.peek().kind != tokRParen {
		var param Param
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if t.text == "in" || t.text == "out" || t.text == "inout" {
			param.In = t.text != "out"
			t, err = p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
		} else {
			param.In = true
		}
		param.Type = typeOf(t.text)
		pname, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		param.Name = pname.text
		param.Pos = Pos{Line: pname.line, Col: pname.col}
		m.Params = append(m.Params, param)
		if p.peek().kind == tokComma {
			p.next()
		}
	}
	p.next() // ')'
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return m, nil
}

// checkErrf formats a semantic-check error with full interface/method
// context and, when the offending token position is known, line:col.
func checkErrf(itf *Interface, m *Method, pos Pos, format string, args ...any) error {
	loc := ""
	if pos.IsValid() {
		loc = pos.String() + ": "
	}
	return fmt.Errorf("aidl: interface %s, method %s: %s%s", itf.Name, m.Name, loc, fmt.Sprintf(format, args...))
}

// check runs semantic validation over a parsed interface.
func check(itf *Interface) error {
	seen := map[string]bool{}
	for _, m := range itf.Methods {
		if seen[m.Name] {
			return checkErrf(itf, m, m.Pos, "declared twice")
		}
		seen[m.Name] = true
		pseen := map[string]bool{}
		for _, param := range m.Params {
			if pseen[param.Name] {
				return checkErrf(itf, m, param.Pos, "parameter %s declared twice", param.Name)
			}
			pseen[param.Name] = true
		}
	}
	for _, m := range itf.Methods {
		if m.Record == nil {
			continue
		}
		for i, target := range m.Record.DropMethods {
			if target == "this" {
				continue
			}
			tm := itf.Method(target)
			if tm == nil {
				return checkErrf(itf, m, m.Record.DropMethodPos(i), "@drop references unknown method %s", target)
			}
		}
		for i, sig := range m.Record.Signatures {
			for j, arg := range sig {
				if param, _ := m.Param(arg); param == nil {
					return checkErrf(itf, m, m.Record.SignatureArgPos(i, j), "@if argument %s is not a parameter", arg)
				}
				// Every drop target must also carry the argument so the
				// signature is comparable across calls.
				for _, target := range m.Record.DropMethods {
					if target == "this" {
						continue
					}
					tm := itf.Method(target)
					if tm == nil {
						continue // reported above
					}
					if param, _ := tm.Param(arg); param == nil {
						return checkErrf(itf, m, m.Record.SignatureArgPos(i, j),
							"@if argument %s is not a parameter of drop target %s", arg, target)
					}
				}
			}
		}
	}
	return nil
}
