// Package parser implements the surface language of the system: an
// ODL/OQL-flavoured syntax for schemas, constraints, physical designs and
// path-conjunctive queries, as used throughout Deutsch, Popa, Tannen
// (VLDB 1999). Example:
//
//	schema Logical {
//	  Proj  : set<{PName: string, CustName: string, PDept: string, Budg: int}>;
//	  depts : set<{DName: string, DProjs: set<string>, MgrName: string}>;
//
//	  constraint RIC1:
//	    forall (d in depts, s in d.DProjs) exists (p in Proj) s = p.PName;
//	}
//
//	design Phys over Logical {
//	  store Proj;
//	  classdict Dept for depts oid Doid;
//	  primary index I on Proj(PName);
//	  secondary index SI on Proj(CustName);
//	  view JI: select struct(DOID: dd, PN: p.PName)
//	           from dom(Dept) dd, Dept[dd].DProjs s, Proj p
//	           where s = p.PName;
//	}
//
//	query Q:
//	  select struct(PN: s, PB: p.Budg, DN: d.DName)
//	  from depts d, d.DProjs s, Proj p
//	  where s = p.PName and p.CustName = "CitiBank";
package parser

import (
	"fmt"
	"strconv"
	"unicode"
)

// tokKind discriminates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct // single characters and two-char punctuation like -> and <=
)

type token struct {
	kind tokKind
	// text is the token's source text, sliced from the input; for a
	// string literal it is the unescaped value.
	text string
	// literal values
	i int64
	f float64

	// off is the byte offset of the token's first character.
	off       int
	line, col int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error renders the error as "parse error at LINE:COL: MSG".
func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (lx *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() (byte, bool) {
	if lx.pos >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.pos], true
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() error {
	for {
		c, ok := lx.peekByte()
		if !ok {
			return nil
		}
		switch {
		case isSpace(c):
			lx.advance()
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			// -- line comment
			for {
				c, ok := lx.peekByte()
				if !ok || c == '\n' {
					break
				}
				lx.advance()
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for {
				c, ok := lx.peekByte()
				if !ok || c == '\n' {
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token. Identifier, number and punctuation text
// is sliced from the source; only a string literal with escapes builds
// a new string.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	start, startLine, startCol := lx.pos, lx.line, lx.col
	c, ok := lx.peekByte()
	if !ok {
		return token{kind: tokEOF, off: start, line: startLine, col: startCol}, nil
	}
	switch {
	case isIdentStart(c):
		for {
			c, ok := lx.peekByte()
			if !ok || !isIdentPart(c) {
				break
			}
			lx.advance()
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], off: start, line: startLine, col: startCol}, nil
	case unicode.IsDigit(rune(c)):
		isFloat := false
		for {
			c, ok := lx.peekByte()
			if !ok {
				break
			}
			if c == '.' && lx.pos+1 < len(lx.src) && unicode.IsDigit(rune(lx.src[lx.pos+1])) && !isFloat {
				isFloat = true
				lx.advance()
				continue
			}
			if !unicode.IsDigit(rune(c)) {
				break
			}
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, lx.errf("bad float literal %q", text)
			}
			return token{kind: tokFloat, text: text, f: f, off: start, line: startLine, col: startCol}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, lx.errf("bad integer literal %q", text)
		}
		return token{kind: tokInt, text: text, i: i, off: start, line: startLine, col: startCol}, nil
	case c == '"':
		lx.advance()
		from := lx.pos
		// val holds the unescaped value once the first escape is seen;
		// until then the value is the source slice from..pos.
		var val []byte
		escaped := false
		for {
			c, ok := lx.peekByte()
			if !ok {
				return token{}, lx.errf("unterminated string literal")
			}
			if c == '"' {
				text := lx.src[from:lx.pos]
				if escaped {
					text = string(val)
				}
				lx.advance()
				return token{kind: tokString, text: text, off: start, line: startLine, col: startCol}, nil
			}
			if c == '\\' {
				if !escaped {
					val = append(val, lx.src[from:lx.pos]...)
					escaped = true
				}
				lx.advance()
				e, ok := lx.peekByte()
				if !ok {
					return token{}, lx.errf("unterminated escape")
				}
				switch e {
				case 'n':
					val = append(val, '\n')
				case 't':
					val = append(val, '\t')
				case '"':
					val = append(val, '"')
				case '\\':
					val = append(val, '\\')
				default:
					return token{}, lx.errf("unknown escape \\%c", e)
				}
				lx.advance()
				continue
			}
			if escaped {
				val = append(val, c)
			}
			lx.advance()
		}
	default:
		// Two-character punctuation.
		if c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '>' {
			lx.advance()
			lx.advance()
			return token{kind: tokPunct, text: lx.src[start:lx.pos], off: start, line: startLine, col: startCol}, nil
		}
		switch c {
		case '(', ')', '{', '}', '<', '>', '[', ']', ',', ':', ';', '=', '.':
			lx.advance()
			return token{kind: tokPunct, text: lx.src[start:lx.pos], off: start, line: startLine, col: startCol}, nil
		}
		return token{}, lx.errf("unexpected character %q", string(c))
	}
}

// bytesPerToken sizes the token slice up front. cnb source averages
// about 3.6 bytes per token (the ProjDept document: 1 223 bytes, 338
// tokens), so a slice of len/3 tokens rarely needs to grow.
const bytesPerToken = 3

// lexAll tokenizes the whole input (including the trailing EOF token).
func lexAll(src string) ([]token, error) {
	return lexFrom(src, 0, 1, 1)
}

// lexFrom tokenizes src from byte offset pos, which lies at line:col,
// to the end (including the trailing EOF token). Positions in tokens
// and errors are those of the whole src.
func lexFrom(src string, pos, line, col int) ([]token, error) {
	lx := lexer{src: src, pos: pos, line: line, col: col}
	out := make([]token, 0, (len(src)-pos)/bytesPerToken+1)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
