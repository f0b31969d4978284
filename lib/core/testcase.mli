(** Testcases following the paper's template (Figure 4).

    A testcase is a random prefix, explicit dependency chains (the directed
    mutation's knobs), a secret-dependent region, and a random suffix; the
    dual-core variant adds an attacker program for the second core. The
    secret is a single bit stored at {!Layout.secret_addr}; materialising the
    testcase for secret 0 and 1 yields the two programs whose commit timing
    the detector compares.

    Dependency chains: a chain of [addi r, r, 1] instructions placed between
    prefix and secret region. The chain's register is coupled into the
    secret region's address computation through a value-neutral gadget
    ([andi z, r, 0; add addr, addr, z]), so chain length shifts {e when} the
    secret-dependent request becomes valid without changing {e what} it
    accesses — exactly the monotonic knob §6.2.1 requires. *)

type secret_flavor =
  | Neutral
      (** the secret is loaded and consumed value-neutrally: architectural
          and micro-architectural behaviour are secret-independent. Most
          random testcases land here — which is why only a small share of
          triggered contentions exposes timing differences (§8.3.2). *)
  | Stride of { stride_log : int; extra_loads : int }
      (** access [buffer + secret << stride_log] (+ extra sequential loads) *)
  | Latency of { use_div : bool }
      (** a divide (or multiply) whose operand, and hence latency, depends
          on the secret *)
  | Gated of { body : Sonar_isa.Instr.t list }
      (** [body] executes only when the secret bit is 1 *)

type chain = { c_reg : Sonar_isa.Reg.t; length : int }

type dual = { attacker : Sonar_isa.Instr.t list }

type t = {
  id : int;
  prefix : Sonar_isa.Instr.t list;
  chains : chain list;
  flavor : secret_flavor;
  suffix : Sonar_isa.Instr.t list;
  dual : dual option;
}

val chain_regs : Sonar_isa.Reg.t list
(** Registers reserved for dependency chains (s2, s3). *)

val materialize : t -> secret:int -> Sonar_uarch.Machine.core_input array
(** Build the runnable core inputs (1 or 2 cores) for a secret bit value.
    Core 0 is the victim; its [secret_range] covers the secret region's
    static instruction indices. *)

val random_instr : Rng.t -> Sonar_isa.Instr.t list
(** One random-region step: usually a single instruction over the scratch
    registers, occasionally a short forward branch plus its shadow. *)

val random : Rng.t -> id:int -> dual:bool -> t
(** A fresh random testcase: 4-14 prefix instructions, two chains of random
    initial length, a random flavor, 4-14 suffix instructions. *)
