"""Wall-clock benchmark of the serving stack and the paper algorithms
(see ``perfbench/README.md``)."""
