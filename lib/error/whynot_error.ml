type t =
  [ `Parse of string
  | `Invalid_whynot of string
  | `Schema_violation of string
  | `Infinite_ontology of string
  | `Not_an_explanation of string
  | `Missing_input of string
  | `Inconsistent of string
  | `Invalid_config of string
  | `Closed of string
  | `Timeout of string
  | `Internal of string
  ]

let code : t -> string = function
  | `Parse _ -> "parse"
  | `Invalid_whynot _ -> "invalid-whynot"
  | `Schema_violation _ -> "schema-violation"
  | `Infinite_ontology _ -> "infinite-ontology"
  | `Not_an_explanation _ -> "not-an-explanation"
  | `Missing_input _ -> "missing-input"
  | `Inconsistent _ -> "inconsistent"
  | `Invalid_config _ -> "invalid-config"
  | `Closed _ -> "closed"
  | `Timeout _ -> "timeout"
  | `Internal _ -> "internal"

let message : t -> string = function
  | `Parse m
  | `Invalid_whynot m
  | `Schema_violation m
  | `Infinite_ontology m
  | `Not_an_explanation m
  | `Missing_input m
  | `Inconsistent m
  | `Invalid_config m
  | `Closed m
  | `Timeout m
  | `Internal m -> m

let to_string e = code e ^ ": " ^ message e
