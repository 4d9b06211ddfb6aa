#!/usr/bin/env python3
"""Check that markdown links in README and docs/ resolve.

Verifies every ``[text](target)`` link in the repo's user-facing
markdown: relative file targets must exist on disk, and ``#fragment``
anchors (bare or appended to a file target) must match a heading in
the referenced document, using GitHub's heading-slug rules. External
``http(s)``/``mailto`` links are not fetched — only noted with
``--list``.

Exit status is non-zero when any link is broken; CI's docs
job runs this on every push.

    python tools/check_links.py             # README.md + docs/*.md
    python tools/check_links.py FILE...     # explicit file set
    python tools/check_links.py --list      # also print every link
"""

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: [text](target) — target may not contain whitespace or a closing paren.
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")


def default_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    files += sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    return files


def github_slug(heading):
    """GitHub's anchor slug for a heading line (inline markup stripped)."""
    text = re.sub(r"[`*_]|\[|\]\([^)]*\)", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def iter_links(path):
    """(lineno, target) for every markdown link outside code fences."""
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if CODE_FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in LINK_RE.finditer(line):
                yield lineno, match.group(1)


def heading_slugs(path):
    slugs = set()
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if CODE_FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            match = HEADING_RE.match(line)
            if match:
                slugs.add(github_slug(match.group(1)))
    return slugs


def check_file(path, list_links=False):
    """List of "file:line: problem" strings for one markdown file."""
    problems = []
    for lineno, target in iter_links(path):
        where = "%s:%d" % (os.path.relpath(path, REPO_ROOT), lineno)
        if list_links:
            print("%s: %s" % (where, target))
        if target.startswith(EXTERNAL_SCHEMES):
            continue
        file_part, _, fragment = target.partition("#")
        if file_part:
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), file_part))
            if not os.path.exists(resolved):
                problems.append("%s: missing file %s" % (where, file_part))
                continue
            anchor_doc = resolved
        else:
            anchor_doc = path
        if fragment and (not os.path.isfile(anchor_doc)
                         or fragment not in heading_slugs(anchor_doc)):
            problems.append("%s: no heading for #%s in %s"
                            % (where, fragment,
                               os.path.relpath(anchor_doc, REPO_ROOT)))
    return problems


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    list_links = "--list" in args
    if list_links:
        args.remove("--list")
    files = [os.path.abspath(a) for a in args] or default_files()
    problems = []
    for path in files:
        if not os.path.isfile(path):
            problems.append("%s: file not found" % path)
            continue
        problems.extend(check_file(path, list_links=list_links))
    for problem in problems:
        print(problem, file=sys.stderr)
    print("checked %d file(s): %s" % (
        len(files), "%d broken link(s)" % len(problems) if problems
        else "all links resolve"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
