"""Reference recursive-descent parser and printer of the expression
grammar.

The character-at-a-time parser that ``tensurf.bipoly`` used before its
token pass: every number and variable is a polynomial object, a power is
square-and-multiply of those objects and every ``+`` builds a new sum.
The tests compare ``parse_poly`` and ``parse_xpoly`` against it, terms,
key order and error positions included.  :func:`to_str` is the printer
that sorted by a per-term Python key and formatted each monomial from its
exponents; the tests compare ``poly_to_str`` with it on both rings.
"""

from tensurf.bipoly import ParseError

_UNIT_EXPONENTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class _Parser:
    """Recursive-descent parser for +, -, *, ^ (alias **) and parentheses.

    Variables are the names in ``cls.VARS``; a power binds to the atom
    before it, so ``2*s^3`` and ``2*s**3`` are the same polynomial.
    """

    def __init__(self, cls: type, text: str, p: int):
        self.cls = cls
        self.text = text
        self.p = p
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        out = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return out

    def _expr(self):
        ch = self._peek()
        if ch == "+":
            self.pos += 1
        acc = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self._term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self._term()
            else:
                return acc

    def _term(self):
        acc = self._factor()
        while self._peek() == "*":
            self.pos += 1
            acc = acc * self._factor()
        return acc

    def _factor(self):
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        base = self._atom()
        ch = self._peek()
        if ch == "^" or self.text.startswith("**", self.pos):
            self.pos += 1 if ch == "^" else 2
            return base ** self._integer()
        return base

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch.isdigit():
            return self.cls.const(self.p, self._integer())
        if ch.isalpha():
            names = self.cls.VARS
            for name, exp in zip(names, _UNIT_EXPONENTS):
                if self.text.startswith(name, self.pos):
                    self.pos += len(name)
                    return self.cls(self.p, {exp: 1})
            if any(name[0] == ch for name in names):
                raise ParseError(f"expected one of {', '.join(names)}", self.pos)
            raise ParseError(f"unknown variable {ch!r}", self.pos)
        raise ParseError("expected a term", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.pos)
        return int(self.text[start:self.pos])


def parse(cls: type, text: str, p: int):
    """``text`` as a polynomial of ``cls`` (``BiPoly`` or ``XPoly``)."""
    return _Parser(cls, text, p).parse()


def to_str(f) -> str:
    """f in its class's print order with balanced coefficient lifts."""
    if f.is_zero:
        return "0"
    order = f.ORDER
    items = sorted(f.terms.items(),
                   key=lambda kv: tuple(-kv[0][k] for k in order))
    out = []
    for idx, (exp, c) in enumerate(items):
        cb = c if c <= f.p // 2 else c - f.p
        mag, neg = abs(cb), cb < 0
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(f.VARS, exp) if e)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)
