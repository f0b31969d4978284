(** Commit-cycle-difference (CCD) metric and trace alignment (§7.1).

    An instruction's commit time can shift either because a side channel
    affected it or because an earlier instruction's delay propagated through
    in-order commit. The CCD — the distance between an instruction's commit
    cycle and its predecessor's — filters the propagation: if only in-order
    commit is at work, CCDs are identical across secret values; a CCD that
    changes with the secret marks an instruction {e genuinely} affected.

    Secret-dependent control flow can make the two commit traces diverge in
    the middle; alignment matches the common head forward and the common
    tail backward (suffix-region instructions, where contention effects
    surface, stay comparable). *)

val align :
  Sonar_uarch.Core_model.commit_record list ->
  Sonar_uarch.Core_model.commit_record list ->
  (int ->
  Sonar_uarch.Core_model.commit_record ->
  Sonar_uarch.Core_model.commit_record ->
  ccd0:int ->
  ccd1:int ->
  unit) ->
  bool
(** [align commits0 commits1 f] calls [f position c0 c1 ~ccd0 ~ccd1] on
    each aligned pair of commits, head first, then tail: [position] is
    the commit-order position in run 0, and [ccd0]/[ccd1] are each
    commit's distance to its predecessor under secret 0 and 1. It returns
    whether the traces differ in the middle (head + tail alignment
    dropped some instructions). A commit whose CCD changes with the
    secret is genuinely affected; one whose commit cycle alone changes
    may only show in-order propagation. *)
