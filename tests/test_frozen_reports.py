"""Frozen outputs at n=4: the counts of every check in ``run_all`` and the
digest of every exported Cayley table.

The figures were recorded before the four ideal categories were collapsed
into two morphism carriers; a refactor that keeps the reports and exports
byte-identical leaves them unchanged.  The test reuses verify's memoized
builds.
"""

import hashlib

from chaincat.verify import SELECTORS, export_cayley, run_all

COUNTS = {
    "counts": {"oxn": 34, "expected": 34},
    "green": {"elements": 34, "pairs": 1156, "relations": 4},
    "factorize-L": {
        "L_objects": 14, "L_inclusions": 36, "L_morphisms": 660, "L_cones": 14,
        "R_objects": 7, "R_inclusions": 12, "R_morphisms": 229, "R_cones": 7,
    },
    "factorize-Po": {"Po_objects": 14, "Po_inclusions": 36, "Po_morphisms": 660, "Po_cones": 14},
    "factorize-Pi": {
        "Pi_objects": 7, "Pi_inclusions": 12, "Pi_morphisms": 229, "Pi_cones": 7, "Pi_factorizations": 229,
    },
    "cones-principal": {"enumerated": 34, "principal": 34},
    "TL-iso": {"cones": 34, "explicit_homomorphism": 1, "explicit_bijective": 1, "search_found": 1},
    "F-iso": {"source_objects": 14, "target_objects": 14, "hom_pairs": 196, "morphisms": 660, "exhaustive": 1},
    "G-iso": {"source_objects": 7, "target_objects": 7, "hom_pairs": 49, "morphisms": 229, "exhaustive": 1},
    "TPo-iso": {
        "cones": 34, "explicit_homomorphism": 1, "explicit_bijective": 1, "search_found": 1, "roundtrip": 1,
    },
    "phi-faithful": {
        "elements": 34, "image_cones": 34, "injective": 1, "image_closed": 1,
        "antihomomorphism": 1, "homomorphism_literal": 0,
    },
    "cone-regular": {
        "TL_order": 34, "TL_regular": 1, "TL_idempotence_criterion": 1,
        "TPo_order": 34, "TPo_regular": 1, "TPo_idempotence_criterion": 1,
    },
}

# sha256 of the file written by ``export_cayley(selector, 4, path)``; the
# left pair and the right pair export the same tables.
EXPORT_SHA256 = {
    "oxn": "adef1048c795d832180c40113f347e2a1bf4b00c1b4eb554b9493801be7eed98",
    "TL": "37b3ef058b24f9a3952ba54329faa4f9d45799389201caabab52d270b7f45b88",
    "TPo": "37b3ef058b24f9a3952ba54329faa4f9d45799389201caabab52d270b7f45b88",
    "TR": "0526b93848db5fcc5e468488baea066cbea8048d000a415463f2faf358070a14",
    "TPi": "0526b93848db5fcc5e468488baea066cbea8048d000a415463f2faf358070a14",
}


def test_run_all_counts_at_n4_are_frozen():
    reports = run_all(4)
    assert [r.check for r in reports] == list(COUNTS)
    for r in reports:
        assert r.status == "pass" and r.witness is None, r.check
        assert r.counts == COUNTS[r.check], r.check


def test_exports_at_n4_are_frozen(tmp_path):
    assert set(SELECTORS) == set(EXPORT_SHA256)
    for selector in SELECTORS:
        path = export_cayley(selector, 4, str(tmp_path / f"{selector}.json"))
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == EXPORT_SHA256[selector], selector
