"""Frozen outputs at n=4 and n=3: the counts of every check in ``run_all``
and the digest of every exported Cayley table.

The counts and the oxn digest were recorded before the four ideal
categories were collapsed into two morphism carriers; a refactor that keeps
the reports and exports byte-identical leaves them unchanged.  The four
cone-export digests were recorded when ``str`` of a cone became its vertex
and maximal components, labels that tell the cones apart.  The n=3 counts and digests were
recorded before the right-ideal morphisms became bare block maps.  The
test reuses verify's memoized builds.
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

# sha256 of the file written by ``export_cayley(selector, 4, path)``.  The
# left pair and the right pair export the same tables; their element labels
# differ, each cone naming its components with its own category's labels.
EXPORT_SHA256 = {
    "oxn": "adef1048c795d832180c40113f347e2a1bf4b00c1b4eb554b9493801be7eed98",
    "TL": "f0b6d691c1379027a8a98e3809eb8f2ccbaf528aefabca26e2f2eb3044dfa19c",
    "TPo": "f5b93ce11dc085bb48ab27f07ebe88e9e25fc0476a9e5821f61eb5432a5e5a16",
    "TR": "b7934bd9704c6922ca59a46112bf7879c6e22f70a0922c959f3401efb86404f6",
    "TPi": "5cdd82e37c6872d4842eec915f4fc0cfd9c2ee90d039f0852c5d68cd8beb1208",
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


# The same at n=3, where every check runs in range.
COUNTS_N3 = {
    "counts": {"oxn": 9, "expected": 9},
    "green": {"elements": 9, "pairs": 81, "relations": 4},
    "factorize-L": {
        "L_objects": 6, "L_inclusions": 6, "L_morphisms": 63, "L_cones": 6,
        "R_objects": 3, "R_inclusions": 2, "R_morphisms": 19, "R_cones": 3,
    },
    "factorize-Po": {"Po_objects": 6, "Po_inclusions": 6, "Po_morphisms": 63, "Po_cones": 6},
    "factorize-Pi": {
        "Pi_objects": 3, "Pi_inclusions": 2, "Pi_morphisms": 19, "Pi_cones": 3, "Pi_factorizations": 19,
    },
    "cones-principal": {"enumerated": 9, "principal": 9},
    "TL-iso": {"cones": 9, "explicit_homomorphism": 1, "explicit_bijective": 1, "search_found": 1},
    "F-iso": {"source_objects": 6, "target_objects": 6, "hom_pairs": 36, "morphisms": 63, "exhaustive": 1},
    "G-iso": {"source_objects": 3, "target_objects": 3, "hom_pairs": 9, "morphisms": 19, "exhaustive": 1},
    "TPo-iso": {
        "cones": 9, "explicit_homomorphism": 1, "explicit_bijective": 1, "search_found": 1, "roundtrip": 1,
    },
    "phi-faithful": {
        "elements": 9, "image_cones": 9, "injective": 1, "image_closed": 1,
        "antihomomorphism": 1, "homomorphism_literal": 0,
    },
    "cone-regular": {
        "TL_order": 9, "TL_regular": 1, "TL_idempotence_criterion": 1,
        "TPo_order": 9, "TPo_regular": 1, "TPo_idempotence_criterion": 1,
    },
}

EXPORT_SHA256_N3 = {
    "oxn": "43a0d43cd3e74f05a9c24c4b33a7ee9fd81a5b29a86d9d6881ba43fa6d1b2bda",
    "TL": "a9c61524163f11a0b1da6e35ad0bfc3e6b46d03bae6f2ee0fe5a180ce4afbb7b",
    "TPo": "ae99d0b29f2727d4d23e635e324b60aac0e9df5efbdea14bd9ae7f79a335efc5",
    "TR": "d135d8f0e6b189d8b6e6133df1da09723bb4cd3ff0c71c21d94334ab3ffa140f",
    "TPi": "84cd564d027a54df98c1e9bbe7c145c76a563469a488bc8384deca3c742933cd",
}


def test_run_all_counts_at_n3_are_frozen():
    reports = run_all(3)
    assert [r.check for r in reports] == list(COUNTS_N3)
    for r in reports:
        assert r.status == "pass" and r.witness is None, r.check
        assert r.counts == COUNTS_N3[r.check], r.check


def test_exports_at_n3_are_frozen(tmp_path):
    assert set(SELECTORS) == set(EXPORT_SHA256_N3)
    for selector in SELECTORS:
        path = export_cayley(selector, 3, str(tmp_path / f"{selector}.json"))
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == EXPORT_SHA256_N3[selector], selector
