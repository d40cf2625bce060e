(** Clauses and cubes as sorted arrays of distinct literals.

    The representation is shared between clauses (disjunctions, the
    elements of a CNF matrix) and cubes a.k.a. terms or "goods"
    (conjunctions); only the logical reading differs.  Construction
    sorts and deduplicates, so structural equality is logical equality
    of literal sets. *)

type t = private Lit.t array

(** The underlying sorted literal array (do not mutate). *)
val lits : t -> Lit.t array

val of_list : Lit.t list -> t

(** Build from DIMACS integers (see {!Lit.of_dimacs}). *)
val of_dimacs_list : int list -> t

val to_list : t -> Lit.t list
val size : t -> int
val is_empty : t -> bool

(** Membership by binary search. *)
val mem : Lit.t -> t -> bool

(** [mem_var v c] holds if [v] occurs in [c] in either polarity. *)
val mem_var : Lit.var -> t -> bool

val exists : (Lit.t -> bool) -> t -> bool
val for_all : (Lit.t -> bool) -> t -> bool
val fold : ('a -> Lit.t -> 'a) -> 'a -> t -> 'a
val iter : (Lit.t -> unit) -> t -> unit
val filter : (Lit.t -> bool) -> t -> t

(** Contains some variable in both polarities. *)
val is_tautology : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** Variables of the clause, in increasing order. *)
val vars : t -> Lit.var list

(** [resolve a b pivot] is the propositional resolvent of [a] and [b] on
    variable [pivot] (all occurrences of [pivot] are dropped). *)
val resolve : t -> t -> Lit.var -> t

val remove_var : Lit.var -> t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
