"""Recording step shared by the byte-for-byte pin tests.

Running a pin test file as a script records the cases its data file lacks
and keeps every pin already there.  If the current code would change an
existing pin, nothing is written and the script exits non-zero, naming the
cases: a pin is only ever rewritten by hand.
"""

import json
import sys


def record_missing(path, cases, run) -> None:
    """Add the outputs of the cases missing from ``path``; keep the rest as they are."""
    pinned = json.loads(path.read_text()) if path.exists() else {}
    added, changed = [], []
    for name, argv, text in cases:
        output = run(argv, text)
        if name not in pinned:
            pinned[name] = output
            added.append(name)
        elif pinned[name] != output:
            changed.append(name)
    if changed:
        sys.exit(f"{path.name}: the current code changes the pinned output of {', '.join(changed)}; nothing written")
    # Case order, so that a case added in the middle of the list adds lines only.
    names = [name for name, _, _ in cases]
    ordered = {name: pinned[name] for name in names}
    ordered.update((name, output) for name, output in pinned.items() if name not in ordered)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    print(f"{path.name}: {len(added)} case(s) added" + (f": {', '.join(added)}" if added else ""))
