"""Golden CSVs: run_dme output pinned byte for byte at fixed seeds.

Any refactor of the engine, the context layout or the wire audit must
reproduce these rows exactly; a change that moves them on purpose says
so. Sizes are small (n=12, d=10, so the rotated schemes pad to 16) to
keep the whole module well under a second.
"""

import pytest

from corrq import harness as hz

HEADER = ",".join(hz.CSV_COLUMNS)

VECTOR_ROWS = {
    "correlated-1bit": "correlated-1bit,12,10,2,0.1370008162359371,40,0.20405953535151142,0.4517294935594879,0.008677150759198796,226.0,0.011917426057411518",
    "correlated-klevel": "correlated-klevel,12,10,4,0.1370008162359371,40,0.04303448441153084,0.2074475461689794,0.0006951600127236374,236.0,0.003316710471668166",
    "entropy-cq": "entropy-cq,12,10,4,0.1370008162359371,40,0.04303448441153084,0.2074475461689794,0.0006951600127236374,230.72222222222223,0.003316710471668166",
    "hadamard-cq": "hadamard-cq,12,10,4,0.1370008162359371,40,0.08827075709436541,0.29710394998108897,0.0017108496170219268,248.0,0.0056401118910656784",
    "independent": "independent,12,10,4,0.1370008162359371,40,0.17740521519583036,0.42119498477051026,0.0037717934089239154,236.0,0.013879758682913614",
    "independent-rotation": "independent-rotation,12,10,4,0.1370008162359371,40,0.6312777252044979,0.7945298768482516,0.01120076349353472,248.0,0.03347652783901066",
    "terngrad": "terngrad,12,10,3,0.1370008162359371,40,0.1016774250151999,0.31886897781878987,0.0047462938858632096,300.0,0.008578479491106933",
    "rotate-sign": "rotate-sign,12,10,2,0.1370008162359371,40,0.7218430795635883,0.8496134883366603,0.35800472343696343,296.0,0.045510391151832134",
}

SCALAR_ROW = "correlated-klevel,30,1,5,0.01675224133797159,500,0.00010531691661497682,0.010262403062391226,1.4783989260497088e-08,219.0,6.210974488893443e-06"


def test_golden_rows_cover_every_scheme():
    assert tuple(VECTOR_ROWS) == hz.SCHEMES


@pytest.mark.parametrize("scheme", hz.SCHEMES)
def test_vector_csv_is_byte_identical(scheme):
    spec = hz.SyntheticSpec(kind="uniform-mean", n=12, d=10, sigma_md=0.02)
    k = 2 if scheme == "correlated-1bit" else 4
    report = hz.run_dme(spec, scheme, 40, 2024, k=k, bit_trials=3)
    assert hz.reports_to_csv([report]) == f"{HEADER}\n{VECTOR_ROWS[scheme]}\n"


def test_scalar_klevel_csv_is_byte_identical():
    batch = hz.gen_scalar_uniform_mean(30, 0.01, seed=11)
    report = hz.run_dme(batch, "correlated-klevel", 500, 2025, k=5)
    assert hz.reports_to_csv([report]) == f"{HEADER}\n{SCALAR_ROW}\n"
