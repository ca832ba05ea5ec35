(** Numeric statistics shared by the diff summaries, the bench harness
    and the {!Metrics} latency histograms: means, spreads, quantiles, and
    a bounded sampling reservoir for unbounded measurement streams. *)

val percent : int -> int -> float
(** [percent part whole] is [100 * part / whole], or [0.] when [whole = 0]. *)

val mean : float list -> float
(** Arithmetic mean; [0.] on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; [0.] on fewer than two samples. *)

val quantile : float -> float list -> float
(** [quantile q xs] for [q] in [[0, 1]]: the linearly-interpolated
    q-quantile of the samples (so [quantile 0.5] is the median and
    [quantile 1.] the maximum). [0.] on the empty list; [q] is clamped
    to [[0, 1]]. *)

val median : float list -> float
(** [quantile 0.5]. *)

val iqr : float list -> float
(** Interquartile range, [quantile 0.75 xs -. quantile 0.25 xs]; [0.] on
    the empty list. *)

val max_over : ('a -> float) -> 'a list -> float
(** Largest [f x] over the list; [0.] on the empty list. *)

val ratio_scaled : int -> float -> int
(** [ratio_scaled n rate] is [round (n * rate)], clamped to [>= 0]. Used to
    turn calibrated rates into integer counts. *)

(** A fixed-capacity sampling reservoir (algorithm R with the repo's
    deterministic {!Prng}): feed it any number of samples, read back an
    unbiased bounded subset plus exact count/mean. Latency histograms keep
    one reservoir per endpoint so memory stays O(capacity) under
    arbitrarily long request streams. Not domain-safe on its own —
    {!Metrics} adds the locking. *)
module Reservoir : sig
  type t

  val create : ?capacity:int -> ?seed:int64 -> unit -> t
  (** [capacity] defaults to 512 samples; [seed] (default 0) makes the
      subsampling deterministic for tests. *)

  val add : t -> float -> unit

  val count : t -> int
  (** Total samples offered, including any no longer retained. *)

  val kept : t -> int
  (** Samples currently retained ([min count capacity]). *)

  val values : t -> float list
  (** The retained samples (unordered). *)

  val mean : t -> float
  (** Exact mean over {e all} samples ever offered (running sum), not
      just the retained subset. *)

  val max_seen : t -> float
  (** Exact maximum over all samples ever offered; [0.] when empty. *)

  val stddev : t -> float
  (** Standard deviation of the retained subset. *)

  val quantile : t -> float -> float
  (** Quantile of the retained subset (exact until [count > capacity]). *)
end

(** Interleaved A/B sampling: how the bench gates compare two variants of
    one workload (jobs=1 vs jobs=N, tracing off vs on, strict vs lenient
    parsing). The sides alternate run by run, so slow drift in the
    process (heap growth, a neighbour compiling on the same CPUs) lands
    on both alike; each pair is judged on its own, and the verdict is
    the median pair's, which a few descheduled runs cannot move. *)
module Ab : sig
  val run : ?warmup:int -> pairs:int -> (unit -> 'a) -> (unit -> 'a) -> ('a * 'a) list
  (** [run ~pairs a b] calls [a] then [b] [warmup] times (default 1) and
      drops the results, then collects [pairs] pairs [(a (), b ())] in
      run order: pair [i] calls [a] first when [i] is even and [b] first
      when it is odd. *)

  type summary = {
    median_a : float;
    median_b : float;
    change : float;  (** median over pairs of [b / a - 1] *)
    change_iqr : float;  (** its interquartile range *)
  }

  val summarize : (float * float) list -> summary

  type budget =
    | Overhead of { rel : float; slack : float }
        (** B may cost [rel] more than A plus an absolute [slack]:
            [b <= a * (1 + rel) + slack]. *)
    | Slowdown of { factor : float; slack : float }
        (** B may take [factor] times A or A plus [slack], whichever is
            larger: [b <= max (a * factor) (a + slack)]. *)

  val allowed : budget -> float -> float
  (** The largest B the budget admits against a given A. *)

  val admits : budget -> a:float -> b:float -> bool
  (** [b <= allowed budget a]: the verdict on one pair. *)

  val within : budget -> (float * float) list -> bool
  (** The gate verdict: the median over pairs of [b - allowed budget a]
      is [<= 0], i.e. the median pair is within budget. *)
end
