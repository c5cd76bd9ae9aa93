(** The built-in property battery: differential checks of the packed cube
    kernel against the byte-per-literal reference, espresso against exact
    Quine–McCluskey, phase assignment's shared off-sets against
    per-candidate recomputation, PLA/cascade structures against truth-table oracles,
    programming-protocol round-trips, repair revalidation through defect
    maps, crossbar resolve vs switch-level simulation, folding witnesses,
    FPGA inverter absorption, the flat-array placer against the
    tuple/[Hashtbl] annealer it replaced, trace well-formedness over random span
    programs, bit-sliced blocked evaluation against scalar [Pla.eval],
    detection of compiled-cache entries rotted in place,
    fixed-memory histogram percentiles against exact nearest rank,
    totality of the serve wire codec, the serve bit-matrix transposes
    against a per-bit reference, and lossless total parsing of
    benchmark run artifacts. *)

val all : Runner.t list
(** Every property, in display order. Names are stable (corpus files refer
    to them): [cube/ops-vs-naive], [cube/algebra], [logic/cofactor-var],
    [cover/scc-preserves-function], [cover/complement-partition],
    [espresso/minimize-verifies], [espresso/minimize-offset],
    [espresso/phase-offset-memo], [espresso/harder-never-worse],
    [espresso/qm-optimality], [pla/eval-matches-cover],
    [cascade/network-eval], [cascade/cover-embedding],
    [program/charge-roundtrip], [program_hw/transistor-roundtrip],
    [atpg/full-coverage], [repair/defect-map-revalidation],
    [crossbar/resolve-vs-hw], [folding/witness-valid],
    [fpga/inverter-absorption], [fpga/place-reference], [trace/wellformed],
    [runtime/bitslice-vs-scalar], [runtime/cache-rot-detected],
    [runtime/histogram-bound],
    [serve/codec-roundtrip], [serve/matrix-transpose],
    [assess/run-roundtrip]. *)
