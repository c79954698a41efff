"""Combinatorics of branched 1-manifolds and their inverse limits.

The package is organised in five layers, each importing only earlier ones:

* ``local_model`` -- symbolic local models: trees of sectors glued over a
  disk, in any dimension, over exact rationals.
* ``branched_graph`` -- one graph class for train tracks (dimension-1
  branched manifolds) and plain graphs (in-edges on side A, out-edges on
  side B), cellular maps and the single-map flattening test.
* ``inverse_system`` -- towers of branched graphs: telescoping, thread
  enumeration, system-level flattening verdicts with certificates.
* ``subshift`` / ``approximants`` / ``transversal`` -- factor languages,
  collared approximant complexes of subshift suspensions, and the exact
  clopen-set algebra on their transversals.
* ``coverings`` / ``profinite`` -- covering towers of plain graphs, deck
  groups, truncated profinite arithmetic and the invariant transverse
  metric.

``laminate.cli`` exposes the ``laminate`` command; ``laminate.formats``
holds the JSON schemas and the DOT exporter.
"""

__version__ = "0.1.0"
