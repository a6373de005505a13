(** Text rendering of a metrics registry: the span trees (disruption
    windows with their phase decomposition) followed by counters and
    gauges. Used by [drc run --metrics] alongside the JSON artifact. *)

val render : now:float -> Dr_obs.Metrics.t -> string
(** One indented block per root span — kind, key attributes, start/end,
    duration, and each child phase with its share of the window; spans
    still open at [now] are marked — then sorted [name{labels} = value]
    lines for every counter and gauge. Runs the registry's collectors
    (via a snapshot), so sampled gauges are fresh. *)
