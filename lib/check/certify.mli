(** Proof-carrying certification artifacts — schema ["rthv-cert/1"].

    [rthv_lint --certify] runs the full pipeline (validation → {!Lint} →
    {!Absint} → {!Witness}) once and serializes everything a reviewer
    needs into one self-contained JSON artifact: the configuration (via
    {!Config_codec}), the interval analysis (every per-window admission
    and interference interval, per-partition verdicts), the sorted
    deduplicated diagnostics, and — for every Error with a witness
    channel — the synthesized adversarial arrival streams together with
    the oracle's confirmation.

    {!recheck_string} then re-validates an artifact {e without re-running
    the analysis}: it re-derives the tamper digest from the artifact's
    bytes, re-decodes and re-encodes the embedded configuration, checks
    every serialized interval for
    {!Absint.Itv.consistent}, checks verdict/diagnostic cross-consistency
    and checks that every channelled Error carries a confirmed witness
    whose arrival digest matches its streams.  A single flipped byte in
    any load-bearing field breaks either the JSON, the digest, or a
    consistency check. *)

val schema : string
(** ["rthv-cert/1"]. *)

val build_string :
  ?scenario:string -> Rthv_core.Config.t -> (string, string) result
(** Produce the artifact's bytes, serialized once.  Invalid configurations
    (RTHV001) certify with a [null] analysis section and no witnesses;
    [Error _] only when the configuration cannot serialize at all
    ({!Config_codec.to_json}).  The last field is ["digest"]: the MD5, in
    32 lowercase hex digits, of the artifact's text with those digits left
    out (["digest":""}]). *)

val recheck_string : string -> (unit, string list) result
(** Re-validate an artifact's bytes; [Error vs] lists every violated
    obligation, and a parse failure is a one-element list.  The digest is
    checked on the bytes as given: JSON whitespace after the closing brace
    is not part of the artifact (the CLI writes a final newline), the
    artifact must end in its ["digest"] field, and the MD5 of the text with
    that field's 32 hex digits cut out must equal them. *)
