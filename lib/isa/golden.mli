(** Golden (reference) functional model of the RV64 subset.

    Executes a {!Program.t} architecturally and returns the dynamic commit
    trace. Besides serving as the differential reference for the timing
    models, it produces the {e transient continuations} the
    micro-architectural models need for Meltdown-style analysis: for every
    faulting instruction, the sequential continuation that a processor with
    lazy exception handling would transiently execute, with the faulting
    load's value forwarded (paper §7.3).

    Fault semantics are simplified to a suppressing handler: a fault is
    recorded in the trace and architectural execution resumes at the next
    instruction (the recovery behaviour the Meltdown attack template
    relies on). [ecall] raises privilege to Machine; [mret] drops it. *)

type fault =
  | Load_access_fault
  | Store_access_fault
  | Illegal_instruction
  | Breakpoint
  | Env_call

type mem_access = {
  addr : int64;
  size : int;
  is_store : bool;
  value : int64;  (** value loaded or stored *)
  sc_success : bool option;  (** for sc.d only *)
}

type effect = {
  seq : int;  (** dynamic sequence number within its trace *)
  index : int;  (** static instruction index in the program *)
  pc : int64;
  instr : Instr.t;
  wb : (Reg.t * int64) option;  (** destination write, if any *)
  mem : mem_access option;
  taken : bool option;  (** [Some] for conditional branches *)
  fault : fault option;
  transient : bool;  (** belongs to a post-fault transient continuation *)
}

type exit_reason = Fell_through | Ebreak_halt | Max_instrs

type outcome = {
  trace : effect array;  (** architectural dynamic trace, in commit order *)
  transients : (int * effect array) list;
      (** [(i, cont)]: [cont] is the transient continuation following the
          faulting instruction at trace position [i] *)
  regs : int64 array;  (** final architectural register file *)
  memory : Memory.t;  (** final memory *)
  exit_reason : exit_reason;
}

val run :
  ?max_instrs:int -> ?transient_window:int -> Program.t -> outcome
(** Execute to completion: falling off the end of the code, [ebreak], or the
    instruction budget. *)
