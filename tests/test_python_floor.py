"""The package's source stays within the oldest Python it declares (3.10).

`ast.parse(..., feature_version=(3, 10))` is best-effort: it rejects grammar
added after 3.10 (for example `except*` groups or PEP 695 type parameters),
but the parser does not promise to catch every newer construct. Regular
expressions are strings, not grammar, so the string constants are also
searched for the `re` forms that 3.11 added: possessive quantifiers (`*+`,
`++`, `?+`, `}+`) and atomic groups (`(?>`). On 3.10 either one makes
`re.compile` raise when its module is imported.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NEWER_REGEX = re.compile(r"[*+?}]\+|\(\?>")


def test_modules_parse_as_python_3_10_without_newer_regex_forms():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "iwot", "*.py")))
    assert paths
    offenders = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path, feature_version=(3, 10))
        offenders += [
            (os.path.basename(path), node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and NEWER_REGEX.search(node.value)
        ]
    assert offenders == []
