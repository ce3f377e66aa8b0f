package scheme

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Reader parses s-expressions from source text.
type Reader struct {
	src  []rune
	pos  int
	line int
}

// NewReader creates a reader over src.
func NewReader(src string) *Reader {
	return &Reader{src: []rune(src), line: 1}
}

// ReadAll parses every datum in the source.
func ReadAll(src string) ([]Value, error) {
	r := NewReader(src)
	var out []Value
	for {
		v, err := r.Read()
		if err != nil {
			return nil, err
		}
		if v == EOF {
			return out, nil
		}
		out = append(out, v)
	}
}

// ReadOne parses exactly one datum.
func ReadOne(src string) (Value, error) {
	r := NewReader(src)
	v, err := r.Read()
	if err != nil {
		return nil, err
	}
	if v == EOF {
		return nil, fmt.Errorf("read: empty input")
	}
	return v, nil
}

func (r *Reader) errf(format string, args ...any) error {
	return fmt.Errorf("read: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

func (r *Reader) peek() (rune, bool) {
	if r.pos >= len(r.src) {
		return 0, false
	}
	return r.src[r.pos], true
}

func (r *Reader) next() (rune, bool) {
	c, ok := r.peek()
	if ok {
		r.pos++
		if c == '\n' {
			r.line++
		}
	}
	return c, ok
}

func (r *Reader) skipSpace() {
	for {
		c, ok := r.peek()
		if !ok {
			return
		}
		switch {
		case unicode.IsSpace(c):
			r.next()
		case c == ';':
			for {
				c, ok := r.next()
				if !ok || c == '\n' {
					break
				}
			}
		case c == '#' && r.pos+1 < len(r.src) && r.src[r.pos+1] == '|':
			r.next()
			r.next()
			depth := 1
			for depth > 0 {
				c, ok := r.next()
				if !ok {
					return
				}
				if c == '|' {
					if n, ok := r.peek(); ok && n == '#' {
						r.next()
						depth--
					}
				} else if c == '#' {
					if n, ok := r.peek(); ok && n == '|' {
						r.next()
						depth++
					}
				}
			}
		default:
			return
		}
	}
}

// Read parses the next datum, returning EOF at end of input.
func (r *Reader) Read() (Value, error) {
	r.skipSpace()
	c, ok := r.peek()
	if !ok {
		return EOF, nil
	}
	switch c {
	case '(', '[':
		r.next()
		return r.readList(closer(c))
	case ')', ']':
		return nil, r.errf("unexpected %q", c)
	case '\'':
		r.next()
		return r.readWrapped("quote")
	case '`':
		r.next()
		return r.readWrapped("quasiquote")
	case ',':
		r.next()
		if n, ok := r.peek(); ok && n == '@' {
			r.next()
			return r.readWrapped("unquote-splicing")
		}
		return r.readWrapped("unquote")
	case '"':
		r.next()
		return r.readString()
	case '#':
		return r.readHash()
	default:
		return r.readAtom()
	}
}

func closer(open rune) rune {
	if open == '[' {
		return ']'
	}
	return ')'
}

func (r *Reader) readWrapped(sym string) (Value, error) {
	v, err := r.Read()
	if err != nil {
		return nil, err
	}
	if v == EOF {
		return nil, r.errf("unexpected end of input after %s", sym)
	}
	return List(Symbol(sym), v), nil
}

func (r *Reader) readList(close rune) (Value, error) {
	var items []Value
	var tail Value = Empty
	for {
		r.skipSpace()
		c, ok := r.peek()
		if !ok {
			return nil, r.errf("unterminated list")
		}
		if c == close {
			r.next()
			break
		}
		if c == ')' || c == ']' {
			return nil, r.errf("mismatched %q (expected %q)", c, close)
		}
		if c == '.' && r.isDelimitedDot() {
			r.next()
			v, err := r.Read()
			if err != nil {
				return nil, err
			}
			if v == EOF {
				return nil, r.errf("unexpected end after dot")
			}
			tail = v
			r.skipSpace()
			c, ok := r.next()
			if !ok || c != close {
				return nil, r.errf("malformed dotted list")
			}
			break
		}
		v, err := r.Read()
		if err != nil {
			return nil, err
		}
		if v == EOF {
			return nil, r.errf("unterminated list")
		}
		items = append(items, v)
	}
	out := tail
	for i := len(items) - 1; i >= 0; i-- {
		out = Cons(items[i], out)
	}
	return out, nil
}

// isDelimitedDot reports whether the '.' at the cursor is a dotted-pair dot
// rather than the start of a symbol or number like .5 or ...
func (r *Reader) isDelimitedDot() bool {
	if r.pos+1 >= len(r.src) {
		return true
	}
	n := r.src[r.pos+1]
	return unicode.IsSpace(n) || n == '(' || n == ')' || n == '[' || n == ']'
}

func (r *Reader) readString() (Value, error) {
	var b strings.Builder
	for {
		c, ok := r.next()
		if !ok {
			return nil, r.errf("unterminated string")
		}
		if c == '"' {
			return NewSString(b.String()), nil
		}
		if c == '\\' {
			e, ok := r.next()
			if !ok {
				return nil, r.errf("unterminated escape")
			}
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '"':
				b.WriteRune(e)
			default:
				return nil, r.errf("bad escape \\%c", e)
			}
			continue
		}
		b.WriteRune(c)
	}
}

func (r *Reader) readHash() (Value, error) {
	r.next() // '#'
	c, ok := r.next()
	if !ok {
		return nil, r.errf("lone #")
	}
	switch c {
	case 't':
		return true, nil
	case 'f':
		return false, nil
	case '(':
		lst, err := r.readList(')')
		if err != nil {
			return nil, err
		}
		items, err := ListToSlice(lst)
		if err != nil {
			return nil, err
		}
		return &Vector{Items: items}, nil
	case '\\':
		return r.readChar()
	default:
		return nil, r.errf("unsupported # syntax #%c", c)
	}
}

func (r *Reader) readChar() (Value, error) {
	c, ok := r.next()
	if !ok {
		return nil, r.errf("lone #\\")
	}
	// Named characters: letters may continue.
	if unicode.IsLetter(c) {
		var b strings.Builder
		b.WriteRune(c)
		for {
			n, ok := r.peek()
			if !ok || !unicode.IsLetter(n) {
				break
			}
			r.next()
			b.WriteRune(n)
		}
		name := b.String()
		if len([]rune(name)) == 1 {
			return Char([]rune(name)[0]), nil
		}
		switch strings.ToLower(name) {
		case "space":
			return Char(' '), nil
		case "newline", "linefeed":
			return Char('\n'), nil
		case "tab":
			return Char('\t'), nil
		case "return":
			return Char('\r'), nil
		case "nul", "null":
			return Char(0), nil
		default:
			return nil, r.errf("unknown character name %q", name)
		}
	}
	return Char(c), nil
}

func isDelimiter(c rune) bool {
	return unicode.IsSpace(c) || strings.ContainsRune("()[]\";", c)
}

func (r *Reader) readAtom() (Value, error) {
	var b strings.Builder
	for {
		c, ok := r.peek()
		if !ok || isDelimiter(c) {
			break
		}
		r.next()
		b.WriteRune(c)
	}
	tok := b.String()
	if tok == "" {
		return nil, r.errf("empty token")
	}
	return parseAtom(tok)
}

func parseAtom(tok string) (Value, error) {
	// Every number has a digit ("inf" and "nan" read as symbols), so a
	// symbol skips both parses — the reader's main cost on program text.
	if !strings.ContainsAny(tok, "0123456789") {
		return Symbol(tok), nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return f, nil
	}
	return Symbol(tok), nil
}
