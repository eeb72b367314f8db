(** Per-partition interrupt event queue.

    The hypervisor's top handler pushes an event into the subscriber
    partition's queue for every IRQ (step (4) in Figure 2 of the paper); the
    partition's bottom handler drains the queue in FIFO order.  The queue is
    used in all three handling modes (direct, interposed, delayed) "to
    prevent an out-of-order execution of IRQs".

    Items carry mutable remaining work so a bottom handler cut short by a
    slot boundary or an exhausted interposition budget resumes where it
    stopped.  The other fields are mutable only so that {!reset_item} can
    recycle a completed item. *)

type item = {
  mutable irq : int;  (** Globally unique IRQ event id (monotone per system). *)
  mutable line : int;  (** Interrupt-controller line of the source. *)
  mutable arrival : Rthv_engine.Cycles.t;
      (** Top-handler activation timestamp — the latency measurement start,
          as in the paper's timestamp-timer setup. *)
  mutable total : Rthv_engine.Cycles.t;
      (** Bottom-handler work for this event. *)
  mutable remaining : Rthv_engine.Cycles.t;
}

type t

val create : unit -> t

val make_item :
  irq:int ->
  line:int ->
  arrival:Rthv_engine.Cycles.t ->
  work:Rthv_engine.Cycles.t ->
  item
(** @raise Invalid_argument if [work <= 0]. *)

val reset_item :
  item ->
  irq:int ->
  line:int ->
  arrival:Rthv_engine.Cycles.t ->
  work:Rthv_engine.Cycles.t ->
  unit
(** Re-initialise a completed item in place, as {!make_item} would build
    it, so a caller that keeps no reference to finished items can reuse
    one per IRQ instead of allocating.  The item must not be queued.
    @raise Invalid_argument if [work <= 0]. *)

val push : t -> item -> unit

val peek : t -> item option
(** Head of the queue (oldest pending event), without removing it. *)

val head : t -> item
(** Like {!peek} but without the [option] box, for allocation-free hot
    paths.  @raise Queue.Empty when the queue is empty — guard with
    {!is_empty}. *)

val drop_head : t -> item
(** Remove and return the head.  @raise Invalid_argument when empty or when
    the head still has remaining work (completion is the only legal reason
    to drop). *)

val is_empty : t -> bool

val length : t -> int

val pending_work : t -> Rthv_engine.Cycles.t
(** Sum of remaining work over all queued items. *)

val max_observed_length : t -> int
(** High-water mark of the queue length, for overload diagnostics. *)

val to_list : t -> item list
(** FIFO-order snapshot, head first. *)
