"""Problem documents and the command line driver, end to end.

A problem document is a JSON file naming algebras, representations,
morphisms, cochains, and group data, with every scalar an exact
rational.  The same driver that backs the console script is called here
as a function, so each command's output and exit code appear inline.
"""

import json
import tempfile
from pathlib import Path

from morphlie.cli import main

# The work directory is removed when the demo ends (see the last line).
tmp = tempfile.TemporaryDirectory(prefix="morphlie-demo-")
workdir = Path(tmp.name)

# One document: a line and a plane, both abelian, the identity triple
# on the line, and the area cocycle on the plane.
document = {
    "lie_algebras": {
        "line": {"dim": 1, "brackets": []},
        "plane": {"dim": 2, "brackets": []},
    },
    "representations": {
        "k_line": {"algebra": "line", "dim": 1, "action": [[["0"]]]},
        "k_plane": {"algebra": "plane", "dim": 1, "action": [[["0"]], [["0"]]]},
    },
    "morphisms": {
        "id_line": {"g": "line", "h": "line", "phi": [["1"]]},
        "id_plane": {"g": "plane", "h": "plane",
                     "phi": [["1", "0"], ["0", "1"]]},
    },
    "morphism_reps": {
        "rep_line": {"morphism": "id_line", "v": "k_line", "w": "k_line",
                     "psi": [["1"]]},
        "rep_plane": {"morphism": "id_plane", "v": "k_plane", "w": "k_plane",
                      "psi": [["1"]]},
    },
    "cochains": {
        "area": {"morphism_rep": "rep_plane", "degree": 2,
                 "theta": [["1"]], "gamma": [["1"]]},
    },
    "groups": {"z2": [[0, 1], [1, 0]]},
    "group_modules": {
        "k_z2": {"group": "z2", "dim": 1, "action": [[["1"]], [["1"]]]},
    },
    "group_module_triples": {
        "z2_id": {"g": "z2", "h": "z2", "phi": [0, 1],
                  "v": "k_z2", "w": "k_z2", "psi": [["1"]]},
    },
}
doc_path = workdir / "triple.json"
doc_path.write_text(json.dumps(document, indent=2))
print(f"document written to {doc_path}")
print()

print("$ morphlie check triple.json")
code = main(["check", str(doc_path)])
print(f"(exit {code})")
print()

print("$ morphlie cohomology triple.json rep_line")
code = main(["cohomology", str(doc_path), "rep_line"])
print(f"(exit {code})")
print()

print("$ morphlie cohomology triple.json z2_id --group --max-degree 1")
code = main(["cohomology", str(doc_path), "z2_id", "--group",
             "--max-degree", "1"])
print(f"(exit {code})")
print()

# Building the extension defined by the area cocycle writes a new
# document holding the total algebras; that document re-checks clean,
# and extract reads the cocycle back out of it.
ext_path = workdir / "extension.json"
print("$ morphlie extend triple.json area -o extension.json")
code = main(["extend", str(doc_path), "area", "-o", str(ext_path)])
print(f"(exit {code})")
print()

print("$ morphlie check extension.json")
code = main(["check", str(ext_path)])
print(f"(exit {code})")
print()

back_path = workdir / "recovered.json"
print("$ morphlie extract extension.json phi_hat rep -o recovered.json")
code = main(["extract", str(ext_path), "phi_hat", "rep", "-o", str(back_path)])
print(f"(exit {code})")
emitted = json.loads(ext_path.read_text())
recovered = json.loads(back_path.read_text())
print(f"recovered cocycle equals the emitted one: "
      f"{recovered['cochains']['cocycle'] == emitted['cochains']['cocycle']}")
print()

# Malformed input is refused with a category and a location.  A zero
# denominator is a per-object failure (exit 1); broken JSON never
# reaches the checker (exit 2).
bad_path = workdir / "bad.json"
bad_path.write_text(json.dumps({
    "lie_algebras": {"g": {"dim": 1, "brackets": []}},
    "representations": {
        "v": {"algebra": "g", "dim": 1, "action": [[["1/0"]]]},
    },
}))
print("$ morphlie check bad.json            (zero denominator)")
code = main(["check", str(bad_path)])
print(f"(exit {code})")
print()

bad_path.write_text('{"lie_algebras": {')
print("$ morphlie check bad.json            (truncated JSON)")
code = main(["check", str(bad_path)])
print(f"(exit {code})")

tmp.cleanup()
