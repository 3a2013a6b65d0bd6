(** Deterministic pseudo-random number generator (splitmix64).

    Every workload owns its own generator so runs are reproducible and
    independent of collector behaviour. *)

type t

val create : int -> t
(** [create seed] builds a generator. The same seed yields the same
    sequence on every platform. *)

val split : t -> t
(** Derive an independent generator (for sub-streams). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is a Bernoulli([p]) draw, defined bit-for-bit as
    [float t 1.0 < p]: it consumes one draw and returns what that
    comparison would. Unlike {!float} it returns an immediate, so it
    allocates nothing. *)

val bool : t -> bool

val geometric : t -> float -> int
(** [geometric t p] samples the number of failures before the first success
    of a Bernoulli([p]) trial; mean [(1-p)/p]. [p] must be in (0, 1]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)
