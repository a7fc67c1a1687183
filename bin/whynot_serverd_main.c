/* C entry point of whynot_serverd: starts the OCaml runtime with a
   32k-word (256 KB) minor heap instead of the default 256k words. An
   Algorithm 2 request allocates under 1k words, all of it dead by the
   reply, so the smaller heap keeps 1.75 MB less resident at no measured
   cost to them (Algorithm 1's all_mges, ~22k words a request, pays
   about 5% more CPU; see doc/ARCHITECTURE.md, "Memory"). The size goes
   first in OCAMLRUNPARAM, ahead of the user's OCAMLRUNPARAM (or
   CAMLRUNPARAM when only that one is set), and the runtime takes the
   last value of a key, so a user's own "s=..." still wins. Setting it
   here rather than with Gc.set from OCaml avoids the minor collection
   Gc.set forces during boot. */

#define CAML_INTERNALS
#include <stdlib.h>
#include <string.h>
#include <caml/callback.h>
#include <caml/sys.h>

#define MINOR_HEAP "s=32k,"

int main(int argc, char **argv)
{
  const char *user = getenv("OCAMLRUNPARAM");
  if (user == NULL) user = getenv("CAMLRUNPARAM");
  if (user == NULL) user = "";
  size_t len = strlen(user);
  char *params = malloc(sizeof MINOR_HEAP + len);
  if (params != NULL) {
    memcpy(params, MINOR_HEAP, sizeof MINOR_HEAP - 1);
    memcpy(params + sizeof MINOR_HEAP - 1, user, len + 1);
    setenv("OCAMLRUNPARAM", params, 1);
    free(params);
  }
  caml_main(argv);
  caml_do_exit(0);
  return 0;
}
