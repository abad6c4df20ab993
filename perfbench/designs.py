"""Seeded design generator: config files drawn from a box around the shipped designs.

The box brackets the two shipped configurations (degenerate_810 and
nondegenerate_850_609) and spans the parameters that change how much work one
command does:

- crystal length and filter half-widths set how narrow the phase-matching
  sinc is against the sampled window, which moves the mode-sum shell count;
- cut detuning sets the emission angles, hence the transverse coupling that
  decides how many Hermite-Gauss shells the singles rates need;
- pump and collection waists move the transverse overlap curvatures, and
  with the box edges they set how many of a sweep's 76 pump waists satisfy
  the separability condition (50-66 in the reference batch);
- the signal wavelength of the non-degenerate family moves every index.

The pair-rate doubling converges at the 201-point level for every design in
this box. In probes it went one level deeper (401 points) only for a
degenerate design whose equal signal and idler windows are cut by a pump
filter narrower than about 0.75 x the window. A draw from a box with equal
windows and a drawn pump filter made ``optimize`` fail with eta = 1.0065 > 1
(baseline/eta_above_1.json: 4.06 THz windows, pump filter 1.76 x the
window), so the box keeps unequal windows and the shipped pump filter of
twice the signal window.

Draws are a Latin hypercube over the batch: each field's range is cut into
one stratum per task. Which strata combine into one design is fixed by the
batch size alone, and the seed places each design inside its cell. So every
batch of the same size covers the box the same way, and seeds differ only
within cells; with a few tasks per batch, a seed-chosen pairing would
otherwise move the batch's cost more than the code under test does.
Numerics stay at the shipped defaults, so the layer balance is the one a
user of the shipped configs sees.
"""

import json
import os

import numpy as np

# (low, high) per drawn field; units are those of the config schema
BOX = {
    "length_um": (350.0, 600.0),
    "cut_detuning_deg": (1.2, 2.0),
    "pump_waist_um": (250.0, 400.0),
    "collection_waist_um": (130.0, 280.0),
    "signal_halfwidth_thz": (4.0, 6.5),
    "idler_halfwidth_thz": (4.0, 6.5),
    "nondegenerate_signal_nm": (830.0, 870.0),
}

FAMILIES = ("degenerate", "nondegenerate")


def draw(seed, n):
    """``n`` design dicts for one batch."""
    layout = np.random.default_rng(n)
    rng = np.random.default_rng(seed)
    cols = {}
    for key, (lo, hi) in BOX.items():
        strata = (layout.permutation(n) + rng.random(n)) / n
        cols[key] = lo + (hi - lo) * strata
    designs = []
    for j in range(n):
        family = FAMILIES[j % 2]
        d = {key: float(col[j]) for key, col in cols.items()}
        d["family"] = family
        designs.append(d)
    return designs


def to_config(d):
    """The JSON config document for one drawn design."""
    if d["family"] == "degenerate":
        pump_nm = 405.0
        collection = {"signal_wavelength_nm": 810.0, "degenerate": True}
    else:
        pump_nm = 355.0
        collection = {"signal_wavelength_nm": round(d["nondegenerate_signal_nm"], 6)}
    collection.update(
        waist_um=round(d["collection_waist_um"], 6),
        cut_detuning_deg=round(d["cut_detuning_deg"], 6),
    )
    hw_s = round(d["signal_halfwidth_thz"], 6)
    return {
        "crystal": {"name": "bbo", "length_um": round(d["length_um"], 6)},
        "pump": {
            "wavelength_nm": pump_nm,
            "bandwidth_thz": 30.0,
            "power_mW": 1.0,
            "waist_um": round(d["pump_waist_um"], 6),
            "filter_halfwidth_thz": 2.0 * hw_s,
        },
        "collection": collection,
        "filters": {
            "signal_halfwidth_thz": hw_s,
            "idler_halfwidth_thz": round(d["idler_halfwidth_thz"], 6),
            "transmission": 1.0,
        },
    }


def write_configs(designs, directory):
    """Write one config file per design; returns their paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths, seen = [], set()
    for j, d in enumerate(designs):
        doc = to_config(d)
        key = json.dumps(doc, sort_keys=True)
        if key in seen:
            raise ValueError("two tasks drew the same design point")
        seen.add(key)
        path = os.path.join(directory, "design_%03d.json" % j)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths
