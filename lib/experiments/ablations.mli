(** Ablations of the paper's design choices, one at a time:

    - the exact Q̂ of eq. (24) against its [min(1, 3/w)] approximation;
    - the full model, eq. (32), against the one-line eq. (33);
    - round-correlated, Bernoulli and Gilbert loss under the round
      simulator (§IV: the model holds "even with Bernoulli losses");
    - the dup-ACK threshold (3 vs Linux's 2) and the backoff cap (2^6 vs
      Irix's 2^5);
    - the model's idealized process against Reno with slow start and
      Tahoe (§IV's SunOS caveat);
    - Reno, NewReno and SACK recovery at packet level;
    - drop-tail against RED when all loss comes from the buffer;
    - TCP against bursty ON/OFF cross-traffic (endogenous loss);
    - generalized AIMD against its formula and the TCP-friendly line;
    - delayed ACKs, b = 1 against b = 2.

    Every simulated row runs at a fixed seed, so the output takes no
    flags and is the same on every run. *)

val print : Format.formatter -> unit
