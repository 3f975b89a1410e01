#!/usr/bin/env python3
"""Fails when an option field is set by no caller.

    python3 scripts/check_option_fields.py

Lists every field of each `*Options` / `*Config` struct declared in a
header under src/ (with the fields of a struct it inherits from), and
looks for an assignment to it in src/, tests/, bench/, examples/ and
perfbench/, outside the header that declares it. An assignment is
`x.field = ...`, a nested `x.a.field = ...`, `p->field = ...` or a
designated initializer `{.field = ...}`. Where a field name appears in
more than one struct, the assignment is credited to the struct that
the declared type of `x` (and of `a`) names.

A field that no caller assigns is a constant in disguise: it makes a
reader keep a configuration working that nobody runs. Make it a named
constant next to its use, or list it in ALLOWED with the reason it
stays settable. The script cannot see a field that callers set only to
its default value; that stays a review rule.

Prints the number of structs and fields, and exits 1 if any field that
ALLOWED does not name is unassigned. It needs no build.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH_DIRS = ("src", "tests", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

# (struct, field) -> why it stays settable although no caller sets it.
ALLOWED = {
    **{("AdaptiveOptions", f): "cost model of the placement policy that "
       "ROADMAP item 10 may replace as a whole"
       for f in ("latencyCostUsPerSecond", "loadCostUs", "alpha", "healthCostUs",
                 "unhealthyThreshold", "unhealthyExtraCostUs", "breakerCostUs")},
    ("CompressConfig", "dataPrefix"): "name prefix, a deployment setting",
    ("TransformConfig", "dataPrefix"): "name prefix, a deployment setting",
    ("MagicBlastConfig", "dataPrefix"): "name prefix, a deployment setting",
    ("MagicBlastConfig", "referenceObject"): "name prefix, a deployment setting",
    ("MagicBlastConfig", "ckptPrefix"): "name prefix, a deployment setting",
}

STRUCT_RE = re.compile(r"^\s*struct\s+(\w+)\s*(?::\s*(?:public\s+)?([\w:]+))?\s*\{", re.M)
KEYWORDS = {"return", "const", "auto", "static", "constexpr", "new", "delete",
            "case", "using", "typename", "struct", "class", "else", "do"}


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def strip_templates(text):
    """Removes <...> argument lists so a comma or paren inside them is not
    mistaken for part of a declarator."""
    out, depth = [], 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth:
            depth -= 1
        elif not depth:
            out.append(ch)
    return "".join(out)


def struct_body(text, start):
    depth, i = 1, start
    while depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[start:i - 1]


def parse_fields(body):
    """(name, type) of each data member at the top level of a struct body."""
    fields, stmt, depth = [], [], 0
    for ch in body:
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        if ch == ";" and depth == 0:
            decl = strip_templates(" ".join("".join(stmt).split()))
            stmt = []
            decl = re.split(r"[={]", decl, maxsplit=1)[0].strip()
            if not decl or "(" in decl or decl.split()[0] in KEYWORDS:
                continue
            m = re.match(r"(.*?)\b(\w+)\s*$", decl)
            if m and m.group(1).strip():
                fields.append((m.group(2), m.group(1).strip().split("::")[-1]))
        else:
            stmt.append(ch)
    return fields


def collect_structs():
    """name -> (header, own fields, base) for every struct in src/ headers,
    and the names of the *Options / *Config ones."""
    structs, options = {}, []
    for path in sorted((ROOT / "src").rglob("*.hpp")):
        text = strip_comments(path.read_text())
        for m in STRUCT_RE.finditer(text):
            name, base = m.group(1), m.group(2)
            fields = parse_fields(struct_body(text, m.end()))
            structs[name] = (path, fields, base.split("::")[-1] if base else None)
            if name.endswith(("Options", "Config")):
                options.append(name)
    return structs, options


def all_fields(structs, name):
    """(field, type, declaring struct) of `name` including inherited ones."""
    out = []
    while name in structs:
        _, fields, base = structs[name]
        out += [(f, t, name) for f, t in fields]
        name = base
    return out


def declared_type(var, text, before, companion):
    """Type named by the nearest declaration of `var` before offset `before`
    (falling back to the companion header, where members are declared).
    `auto x = std::make_shared<T>(...)` and `auto x = T{...}` give T."""
    pattern = re.compile(r"([A-Za-z_][\w:]*)(?:<[^;{}()]*>)?(?:\s*[&*]\s*|\s+)" +
                         re.escape(var) + r"\s*(?:[;={(,)\[])")
    made = re.compile(r"\s*(?:std::make_(?:shared|unique)<\s*)?([A-Za-z_][\w:]*)\s*[>{(]")
    for source, limit in ((text, before), (companion, None)):
        if source is None:
            continue
        found = None
        for m in pattern.finditer(source, 0, len(source) if limit is None else limit):
            typ = m.group(1).split("::")[-1]
            if typ == "auto":
                init = made.match(source, m.end()) if source[m.end() - 1] == "=" else None
                found = init.group(1).split("::")[-1] if init else None
            elif typ not in KEYWORDS:
                found = typ
        if found:
            return found
    return None


def braced_type(text, at, companion):
    """Type of the braced initializer that encloses offset `at`: the T of
    `T{...}` or `T x{...}`, or the declared type of `x` in `x = {...}`."""
    depth = 0
    for i in range(at, -1, -1):
        if text[i] == "}":
            depth += 1
        elif text[i] == "{":
            if depth == 0:
                head = text[max(0, i - 200):i]
                m = re.search(r"([A-Za-z_][\w:]*)\s*(\w+)?\s*=?\s*$", head)
                if not m:
                    return None
                first = m.group(1).split("::")[-1]
                if m.group(2) and first not in KEYWORDS:
                    return first  # T x{...}
                name = m.group(2) or first  # T{...}, x = {...}, return T{...}
                return declared_type(name, text, i, companion) or name
            depth -= 1
    return None


def declaring(structs, typ, field):
    """The struct that declares `field` as a member of `typ`, or None."""
    return next((d for f, _, d in all_fields(structs, typ) if f == field), None)


def member_type(structs, typ, field):
    return next((t for f, t, _ in all_fields(structs, typ) if f == field), None)


CHAIN_RE = re.compile(r"\b([A-Za-z_]\w*)((?:\s*(?:\.|->)\s*\w+)+)\s*=(?!=)")
DESIGNATED_RE = re.compile(r"[{,]\s*\.(\w+)\s*=(?!=)")


def assignments(structs, options):
    """(declaring struct, field) pairs assigned in a file other than the
    struct's own header."""
    owner_of = {}
    for name in options:
        for field, _, _ in all_fields(structs, name):
            owner_of.setdefault(field, set()).add(name)
    assigned = set()
    for top in SEARCH_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = strip_comments(path.read_text(errors="replace"))
            companion_path = path.with_suffix(".hpp")
            companion = (strip_comments(companion_path.read_text())
                         if path.suffix == ".cpp" and companion_path.exists() else None)

            def credit(struct, field):
                if structs[struct][0] != path:
                    assigned.add((struct, field))

            def credit_unresolved(field):
                # The variable's type is unknown: credit a struct the file names.
                for struct in owner_of.get(field, ()):
                    if re.search(r"\b%s\b" % struct, text):
                        credit(declaring(structs, struct, field), field)

            for m in CHAIN_RE.finditer(text):
                parts = [m.group(1)] + re.split(r"\s*(?:\.|->)\s*", m.group(2).strip())[1:]
                if parts[-1] not in owner_of:
                    continue
                typ = declared_type(parts[0], text, m.start(), companion)
                if typ not in structs:
                    credit_unresolved(parts[-1])
                    continue
                # Setting x.a.field also configures the nested struct `a`.
                for member in parts[1:]:
                    owner = declaring(structs, typ, member)
                    if owner is None:
                        break
                    credit(owner, member)
                    typ = member_type(structs, typ, member)
            for m in DESIGNATED_RE.finditer(text):
                typ = braced_type(text, m.start(), companion)
                owner = declaring(structs, typ, m.group(1))
                if owner is None:
                    credit_unresolved(m.group(1))
                else:
                    credit(owner, m.group(1))
    return assigned


def main():
    structs, options = collect_structs()
    assigned = assignments(structs, options)
    total, unset, allowed = 0, [], 0
    for name in sorted(options):
        fields = all_fields(structs, name)
        total += len(fields)
        for field, _, owner in fields:
            if (owner, field) in assigned:
                continue
            if (owner, field) in ALLOWED:
                allowed += 1
            elif (owner, field) not in unset:
                unset.append((owner, field))
        print(f"{name:28} {len(fields):3} fields  "
              f"({structs[name][0].relative_to(ROOT)})")
    stale = [k for k in ALLOWED if k[1] not in {f for f, _, _ in all_fields(structs, k[0])}
             or k in assigned]
    print(f"{len(options)} option structs, {total} fields; {allowed} allowed unset")
    for struct, field in stale:
        print(f"STALE ALLOWED entry: {struct}::{field} is gone or now assigned")
    for struct, field in unset:
        print(f"UNSET: {struct}::{field} is assigned nowhere outside "
              f"{structs[struct][0].relative_to(ROOT)}")
    return 1 if unset or stale else 0


if __name__ == "__main__":
    sys.exit(main())
