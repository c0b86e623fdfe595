"""The README's table of size caps shows the caps that `src/` holds."""

import re
import sys
from pathlib import Path

from linvariants import exactlin, linv, phin, plethysm, slopes, weylhecke

README = Path(__file__).resolve().parents[1] / "README.md"

#: the start of a caps row's argument cell -> the caps its cap cell shows, in order
CAPS = {
    "`cg --m`": [plethysm.CG_MAX_INDEX],
    "`bcoeff --n`": [plethysm.BCOEFF_MAX_N],
    "`project-endo --n`": [plethysm.PROJECT_ENDO_MAX_N],
    "`phin --n`": [phin.PHIN_MAX_N],
    "`phin --weight`": [phin.PHIN_MAX_WEIGHT],
    "`phin --all-submodules --n`, steinberg": [phin.STEINBERG_ALL_SUBMODULES_MAX_N],
    "`phin --all-submodules --n`, crystalline": [phin.ALL_SUBMODULES_MAX_N],
    "`hecke --all --g`": [weylhecke.HECKE_ALL_MAX_G],
    "`hecke --all` exponent digits": [weylhecke.HECKE_ALL_MAX_DIGITS],
    "`recover-chi --g`": [weylhecke.RECOVER_CHI_MAX_G],
    "`obstruction --exponents`": [slopes.OBSTRUCTION_MAX_SUMS, slopes.OBSTRUCTION_MAX_TRIALS],
    **{f"`linv` rank `{key}` of `{family}`": [cap] for family, (key, cap) in linv.LINV_RANK_CAPS.items()},
    "the exponent `e` of a decimal string": [exactlin.MAX_DECIMAL_EXPONENT],
    # Python's own limit, at its default
    "every integer read or printed": [sys.int_info.default_max_str_digits],
}


def caps_rows() -> list[tuple[str, str]]:
    """(argument, cap) of each row of the caps table that names an argument."""
    lines = README.read_text().splitlines()
    start = lines.index("| argument | cap | request at the cap | compact JSON | `--format pretty` |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        argument, cap = (cell.strip() for cell in line.split("|")[1:3])
        if argument:
            rows.append((argument, cap))
    return rows


def shown(cap: str) -> list[int]:
    """The numbers a cap cell shows: `150`, `10^6`."""
    return [int(base) ** int(exponent or 1) for base, exponent in re.findall(r"(\d+)(?:\^(\d+))?", cap)]


def test_every_caps_row_shows_the_cap_in_src():
    rows = caps_rows()
    for start, caps in CAPS.items():
        (cap,) = [cap for argument, cap in rows if argument.startswith(start)]
        assert shown(cap) == caps, (start, cap)


def test_every_caps_row_with_a_number_is_checked():
    unchecked = [(argument, cap) for argument, cap in caps_rows()
                 if shown(cap) and not argument.startswith(tuple(CAPS))]
    assert unchecked == []
