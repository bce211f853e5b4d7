"""Set-up of one workload, in a fresh process, without running any check.

    python3 perfbench/setup_probe.py SPEC.json

Imports ``stautcheck.cli``, builds the workload's models with the program's
public builders and parses its generated files.  The benchmark times this
process from start to exit as ``setup_s``.
"""

import json
import sys


def main(spec_path):
    import stautcheck.cli  # noqa: F401  (the import is part of set-up)
    from stautcheck import files, linear, drinfeld, profunctors, suites, thin
    from stautcheck import quantale as qu

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for s in spec.get("quantales", []):
        files.resolve_quantale(s)
    for n in spec.get("posets", []):
        for mask in qu.all_posets(n):
            qu.build_two_profunctor_quantale(mask, n)
    for s in spec.get("thin", []):
        thin.ThinModel(files.resolve_quantale(s))
    for d in spec.get("vec", []):
        linear.build_vec_model(d)
    if spec.get("drinfeld"):
        drinfeld.build_drinfeld_z2()
    if spec.get("gradedline"):
        linear.GradedLineModel()
    for v in spec.get("vcats", []):
        if v == "builtin:disc2":
            profunctors.discrete_vcat(qu.build_bool2(), ["a", "b"])
        elif v == "builtin:luk3":
            suites.luk3_two_object_vcat()
        else:
            files.load_vcat_file(v)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
